#include "edge/query_service/lazy_auditor.h"

#include <algorithm>
#include <utility>

#include "common/serde.h"

namespace vbtree {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

LazyAuditor::LazyAuditor(std::string db_name, KeyDirectory* keys,
                         Options options)
    : db_name_(std::move(db_name)),
      keys_(keys),
      options_(options),
      paused_(options.start_paused),
      sample_rng_(options.sample_seed),
      digest_cache_(std::make_shared<RecoveredDigestCache>()),
      verifier_(BatchVerifier::Options{options.verify_workers}),
      worker_([this] { WorkerLoop(); }) {}

LazyAuditor::~LazyAuditor() { Shutdown(); }

void LazyAuditor::set_digest_cache(
    std::shared_ptr<RecoveredDigestCache> cache) {
  std::lock_guard lock(mu_);
  digest_cache_ = std::move(cache);
}

bool LazyAuditor::Submit(AuditTicket ticket, TrustMode mode) {
  std::unique_lock lock(mu_);
  if (stopping_) return false;
  ticket.id = next_ticket_id_++;
  // Only OK slots are auditable: an edge-reported per-query failure was
  // surfaced *unauthenticated* at delivery (same as certified mode), so
  // it neither needs nor can get a deferred check.
  size_t auditable = 0;
  for (const QueryResponse& qr : ticket.resp.responses) {
    if (qr.status.ok()) auditable++;
  }
  stats_.tickets_enqueued++;
  stats_.queries_enqueued += auditable;
  if (mode == TrustMode::kSampled &&
      sample_rng_.NextDouble() >= options_.sample_fraction) {
    // Counted, deliberately unaudited: kSampled trades coverage for
    // auditor bandwidth. The draw happens in submit order from the
    // seeded RNG, so the audited subset is exactly reproducible.
    stats_.tickets_sampled_out++;
    stats_.queries_sampled_out += auditable;
    return true;
  }
  not_full_.wait(lock, [&] {
    return stopping_ || queue_.size() < options_.queue_capacity;
  });
  if (stopping_) return false;
  queue_.push_back(std::move(ticket));
  not_empty_.notify_one();
  return true;
}

void LazyAuditor::Drain() {
  std::unique_lock lock(mu_);
  drained_.wait(lock, [&] { return queue_.empty() && !busy_; });
}

void LazyAuditor::Shutdown() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    paused_ = false;
    not_empty_.notify_all();
    not_full_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
}

void LazyAuditor::PauseForTest() {
  std::lock_guard lock(mu_);
  paused_ = true;
}

void LazyAuditor::ResumeForTest() {
  std::lock_guard lock(mu_);
  paused_ = false;
  not_empty_.notify_all();
}

uint64_t LazyAuditor::audited_watermark(
    const std::string& schema_table) const {
  std::lock_guard lock(mu_);
  auto it = audited_watermark_.find(schema_table);
  return it == audited_watermark_.end() ? 0 : it->second;
}

std::vector<LazyAuditor::Alarm> LazyAuditor::TakeAlarms() {
  std::lock_guard lock(mu_);
  return std::exchange(alarms_, {});
}

size_t LazyAuditor::alarm_count() const {
  std::lock_guard lock(mu_);
  return alarms_.size();
}

LazyAuditor::Stats LazyAuditor::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

size_t LazyAuditor::backlog() const {
  std::lock_guard lock(mu_);
  return queue_.size() + (busy_ ? 1 : 0);
}

void LazyAuditor::WorkerLoop() {
  std::unique_lock lock(mu_);
  for (;;) {
    not_empty_.wait(lock, [&] {
      return stopping_ || (!queue_.empty() && !paused_);
    });
    if (queue_.empty()) return;  // predicate held, so stopping_
    AuditTicket ticket = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    not_full_.notify_one();
    lock.unlock();
    AuditOne(std::move(ticket));
    lock.lock();
    busy_ = false;
    if (queue_.empty()) drained_.notify_all();
  }
}

void LazyAuditor::AuditOne(AuditTicket ticket) {
  const auto audit_start = std::chrono::steady_clock::now();
  std::shared_ptr<RecoveredDigestCache> cache;
  {
    std::lock_guard lock(mu_);
    cache = digest_cache_;
  }

  // The deferred check is the certified check, verbatim: same
  // DigestSchema, same BatchVerifier, same once-per-pool recovery, same
  // kind of digest cache — only the schedule moved (DESIGN.md §9).
  DigestSchema ds(db_name_,
                  ticket.digest_table.empty() ? ticket.schema_table
                                              : ticket.digest_table,
                  ticket.schema, ticket.algo, ticket.modulus_bits);
  Verifier::TopBinding binding{ticket.schema_table, ticket.bind_lo,
                               ticket.bind_hi};
  QueryBatchResponse& resp = ticket.resp;

  std::vector<Alarm> new_alarms;
  CryptoCounters crypto;
  uint64_t audited = 0;

  auto make_alarm = [&](size_t i, Status why) {
    Alarm a;
    a.ticket_id = ticket.id;
    a.schema_table = ticket.schema_table;
    a.source = ticket.source;
    a.query = ticket.queries[i];
    ByteWriter w;
    resp.responses[i].vo.Serialize(&w);
    a.vo_bytes = w.TakeBuffer();
    a.replica_version = resp.replica_version;
    a.verification = std::move(why);
    new_alarms.push_back(std::move(a));
  };

  std::map<uint32_t, Result<std::shared_ptr<Recoverer>>> recoverers;
  std::vector<BatchVerifier::Job> jobs;
  std::vector<size_t> job_index;
  jobs.reserve(resp.responses.size());
  for (size_t i = 0; i < resp.responses.size(); ++i) {
    const QueryResponse& qr = resp.responses[i];
    if (!qr.status.ok()) continue;  // was delivered unauthenticated
    const uint32_t kv = qr.vo.key_version;
    auto rec_it = recoverers.find(kv);
    if (rec_it == recoverers.end()) {
      rec_it = recoverers.emplace(kv, keys_->RecovererFor(kv, ticket.now))
                   .first;
    }
    if (!rec_it->second.ok()) {
      // An answer signed under a key version the directory rejects (as
      // of delivery time) would have failed the certified check too.
      audited++;
      make_alarm(i, rec_it->second.status());
      continue;
    }
    jobs.push_back(BatchVerifier::Job{&ticket.queries[i], &qr.rows, &qr.vo,
                                      ticket.has_binding ? &binding : nullptr});
    job_index.push_back(i);
  }

  if (!jobs.empty()) {
    // Per-key-version groups with the pool recovered once for the
    // dominant version — mirrors Client::VerifyBatchGroup.
    std::map<uint32_t, std::vector<size_t>> by_version;
    for (size_t j = 0; j < jobs.size(); ++j) {
      by_version[resp.responses[job_index[j]].vo.key_version].push_back(j);
    }
    uint32_t pool_kv = 0;
    size_t pool_kv_jobs = 0;
    for (const auto& [kv, group] : by_version) {
      if (group.size() > pool_kv_jobs) {
        pool_kv_jobs = group.size();
        pool_kv = kv;
      }
    }
    for (auto& [kv, group] : by_version) {
      Recoverer* rec = recoverers.at(kv).ValueOrDie().get();
      std::vector<BatchVerifier::Job> group_jobs;
      group_jobs.reserve(group.size());
      for (size_t j : group) group_jobs.push_back(jobs[j]);
      BatchVerifier::PoolContext ctx;
      ctx.pool = kv == pool_kv ? resp.sig_pool.get() : nullptr;
      ctx.cache = cache.get();
      ctx.cache_domain = kv;
      ctx.pool_counters = &crypto;
      std::vector<BatchVerifier::Outcome> outcomes =
          verifier_.VerifyAll(ds, rec, group_jobs, &ctx);
      for (size_t g = 0; g < group.size(); ++g) {
        const size_t i = job_index[group[g]];
        BatchVerifier::Outcome& out = outcomes[g];
        crypto.Add(out.counters);
        audited++;
        if (!out.verification.ok()) {
          make_alarm(i, std::move(out.verification));
        }
      }
    }
  }

  const uint64_t audit_us = MicrosSince(audit_start);
  const uint64_t lag_us = MicrosSince(ticket.issued_at);

  std::function<void(const Alarm&)> sink;
  {
    std::lock_guard lock(mu_);
    stats_.tickets_audited++;
    stats_.queries_audited += audited;
    stats_.alarms += new_alarms.size();
    stats_.audit_lag_us_total += lag_us;
    stats_.audit_lag_us_max = std::max(stats_.audit_lag_us_max, lag_us);
    stats_.audit_us_total += audit_us;
    stats_.crypto.Add(crypto);
    if (new_alarms.empty() && audited > 0) {
      // The whole ticket re-certified: the replica version it was labeled
      // with is now an *audited* fact, so the lazy monotonic-read
      // watermark may advance (and only here — provisional answers never
      // move it).
      uint64_t& wm = audited_watermark_[ticket.schema_table];
      wm = std::max(wm, resp.replica_version);
    }
    for (const Alarm& a : new_alarms) alarms_.push_back(a);
    sink = alarm_sink_;
  }
  // Push alarms outside the auditor lock: the sink (typically an
  // EdgeDirector) may call straight back into Expedite().
  if (sink != nullptr) {
    for (const Alarm& a : new_alarms) sink(a);
  }
}

void LazyAuditor::SetAlarmSink(std::function<void(const Alarm&)> sink) {
  std::lock_guard lock(mu_);
  alarm_sink_ = std::move(sink);
}

size_t LazyAuditor::Expedite(const std::string& source) {
  std::lock_guard lock(mu_);
  std::deque<AuditTicket> expedited;
  std::deque<AuditTicket> rest;
  for (AuditTicket& t : queue_) {
    (t.source == source ? expedited : rest).push_back(std::move(t));
  }
  const size_t moved = expedited.size();
  if (moved > 0) {
    for (AuditTicket& t : rest) expedited.push_back(std::move(t));
    queue_ = std::move(expedited);
    stats_.expedited_tickets += moved;
  } else {
    queue_ = std::move(rest);
  }
  return moved;
}

}  // namespace vbtree
