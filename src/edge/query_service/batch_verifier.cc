#include "edge/query_service/batch_verifier.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "crypto/counting_recoverer.h"

namespace vbtree {

BatchVerifier::BatchVerifier(Options options) : options_(options) {
  if (options_.num_workers > 0) {
    // Verification jobs are submitted from VerifyAll only, one call at a
    // time, so a blocking queue sized to the pool is plenty.
    pool_ = std::make_unique<ThreadPool>(ThreadPoolOptions{
        options_.num_workers, /*queue_capacity=*/1024, OverflowPolicy::kBlock});
  }
}

BatchVerifier::~BatchVerifier() = default;

namespace {

/// Resolves pool entries [begin, end): cache hit when possible, one
/// Recover otherwise (inserted back into the cache). Counter traffic
/// lands in the shared batch-level sink — safe, the fields are atomic.
void RecoverPoolRange(const SignaturePool& pool, Recoverer* recoverer,
                      RecoveredDigestCache* cache, uint64_t domain,
                      CryptoCounters* counters, size_t begin, size_t end,
                      std::vector<RecoveredSignature>* out) {
  for (size_t i = begin; i < end; ++i) {
    const Signature& sig = *pool.Get(i);
    RecoveredSignature& slot = (*out)[i];
    if (cache != nullptr &&
        cache->Lookup(domain, sig, &slot.digest, counters)) {
      continue;
    }
    if (counters != nullptr) CryptoCounters::Tick(counters->recovers);
    Result<Digest> d = recoverer->Recover(sig);
    if (!d.ok()) {
      slot.status = d.status();
      continue;
    }
    slot.digest = d.MoveValueUnsafe();
    if (cache != nullptr) cache->Insert(domain, sig, slot.digest, counters);
  }
}

}  // namespace

std::vector<RecoveredSignature> BatchVerifier::RecoverPool(
    Recoverer* recoverer, const PoolContext& ctx) {
  const SignaturePool& pool = *ctx.pool;
  std::vector<RecoveredSignature> recovered(pool.size());
  if (pool.size() == 0) return recovered;

  const size_t workers = pool_ != nullptr ? pool_->num_threads() : 0;
  // Fanning out only pays when there are enough entries to amortize the
  // submission round trip; small pools resolve inline.
  const size_t kMinPerWorker = 8;
  if (workers <= 1 || pool.size() < 2 * kMinPerWorker) {
    RecoverPoolRange(pool, recoverer, ctx.cache, ctx.cache_domain,
                     ctx.pool_counters, 0, pool.size(), &recovered);
    return recovered;
  }

  size_t chunks = std::min(workers, pool.size() / kMinPerWorker);
  if (chunks == 0) chunks = 1;
  const size_t per_chunk = (pool.size() + chunks - 1) / chunks;
  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * per_chunk;
    const size_t end = std::min(pool.size(), begin + per_chunk);
    if (begin >= end) break;
    {
      std::lock_guard lock(mu);
      remaining++;
    }
    Status submitted = pool_->Submit([&, begin, end] {
      RecoverPoolRange(pool, recoverer, ctx.cache, ctx.cache_domain,
                       ctx.pool_counters, begin, end, &recovered);
      std::lock_guard lock(mu);
      if (--remaining == 0) done_cv.notify_one();
    });
    if (!submitted.ok()) {
      // Pool shut down mid-call: resolve this chunk inline.
      RecoverPoolRange(pool, recoverer, ctx.cache, ctx.cache_domain,
                       ctx.pool_counters, begin, end, &recovered);
      std::lock_guard lock(mu);
      --remaining;
    }
  }
  std::unique_lock lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  return recovered;
}

BatchVerifier::Outcome BatchVerifier::RunJob(
    const DigestSchema& ds, Recoverer* recoverer, const Job& job,
    std::span<const RecoveredSignature> recovered, const PoolContext* ctx) {
  Outcome out;
  CountingRecoverer counting(recoverer, &out.counters);
  DigestSchema job_ds = ds;  // per-job copy: counters sink is per-outcome
  Verifier verifier(std::move(job_ds), &counting);
  verifier.set_counters(&out.counters);
  verifier.set_recovered_pool(recovered);
  if (ctx != nullptr && ctx->cache != nullptr) {
    verifier.set_digest_cache(ctx->cache, ctx->cache_domain);
  }
  if (job.binding != nullptr) verifier.set_top_binding(job.binding);
  out.verification = verifier.VerifySelect(*job.query, *job.rows, *job.vo);
  return out;
}

std::vector<BatchVerifier::Outcome> BatchVerifier::VerifyAll(
    const DigestSchema& ds, Recoverer* recoverer, std::span<const Job> jobs,
    const PoolContext* ctx) {
  std::vector<Outcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;

  // Phase 1: recover the batch signature pool once, fanned across the
  // workers. Every pooled signature pays its Cost_s here exactly once no
  // matter how many VO references point at it.
  std::vector<RecoveredSignature> recovered;
  if (ctx != nullptr && ctx->pool != nullptr) {
    recovered = RecoverPool(recoverer, *ctx);
  }

  // Phase 2: per-query verification consuming the recovered pool.
  if (pool_ == nullptr || jobs.size() == 1) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      outcomes[i] = RunJob(ds, recoverer, jobs[i], recovered, ctx);
    }
    return outcomes;
  }

  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = jobs.size();
  for (size_t i = 0; i < jobs.size(); ++i) {
    Status submitted = pool_->Submit([&, i] {
      Outcome out = RunJob(ds, recoverer, jobs[i], recovered, ctx);
      std::lock_guard lock(mu);
      outcomes[i] = std::move(out);
      if (--remaining == 0) done_cv.notify_one();
    });
    if (!submitted.ok()) {
      // Pool shut down mid-call: fall back to inline execution.
      Outcome out = RunJob(ds, recoverer, jobs[i], recovered, ctx);
      std::lock_guard lock(mu);
      outcomes[i] = std::move(out);
      --remaining;
    }
  }
  std::unique_lock lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  return outcomes;
}

}  // namespace vbtree
