#ifndef VBTREE_EDGE_QUERY_SERVICE_BATCH_VERIFIER_H_
#define VBTREE_EDGE_QUERY_SERVICE_BATCH_VERIFIER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/counters.h"
#include "crypto/recovered_digest_cache.h"
#include "crypto/signer.h"
#include "query/predicate.h"
#include "vbtree/digest_schema.h"
#include "vbtree/verification_object.h"
#include "vbtree/verifier.h"

namespace vbtree {

/// Client-side companion of the edge QueryService: fans the VO
/// verifications of a coalesced batch response across a small worker
/// pool. Verification is the client's dominant cost (modular
/// exponentiations per returned attribute, §4.2), and per-query VOs are
/// independent — embarrassingly parallel.
///
/// Fast path (DESIGN.md §6): when the batch arrived through a wire-v2
/// SignaturePool, every distinct signature is recovered exactly once up
/// front — the pool entries are partitioned across the workers, each
/// resolved through the cross-batch RecoveredDigestCache first — and the
/// per-query verifications then consume recovered digests by pool index
/// instead of paying one Cost_s per signature *reference*.
///
/// The pool is owned by the verifier and reused across calls; VerifyAll
/// itself blocks until every job is done, so the caller (a Client, which
/// is single-threaded by contract) observes plain synchronous semantics
/// and its monotonic-read watermark logic is untouched.
///
/// Thread-safety requirements on inputs: the Recoverer must tolerate
/// concurrent Recover() calls (SimRecoverer and RsaRecoverer both do:
/// per-call state only); jobs reference caller-owned data that must stay
/// alive for the duration of VerifyAll.
class BatchVerifier {
 public:
  struct Options {
    /// 0 = verify inline on the calling thread (no extra threads), so
    /// many client threads keep the process's thread count bounded.
    size_t num_workers = 4;
  };

  BatchVerifier() : BatchVerifier(Options{}) {}
  explicit BatchVerifier(Options options);
  ~BatchVerifier();

  BatchVerifier(const BatchVerifier&) = delete;
  BatchVerifier& operator=(const BatchVerifier&) = delete;

  /// One (query, rows, VO) triple to authenticate. `query` must be
  /// projection-normalized, matching how the rows were deserialized.
  struct Job {
    const SelectQuery* query = nullptr;
    const std::vector<ResultRow>* rows = nullptr;
    const VerificationObject* vo = nullptr;
    /// Lineage-shard root anchoring (Verifier::set_top_binding): non-null
    /// when the shard's digest domain is shared with split siblings and
    /// the VO anchors at the signed shard binding. Caller-owned; must
    /// stay alive for the duration of VerifyAll.
    const Verifier::TopBinding* binding = nullptr;
  };

  struct Outcome {
    Status verification;
    /// Cost_h / Cost_k / Cost_s this job spent (per-job sink, so the
    /// parallel workers never contend on one counter block).
    CryptoCounters counters;
  };

  /// Batch-level context for the verification fast path. All pointers
  /// are caller-owned and optional; a default-constructed context (or
  /// nullptr) reproduces the plain Recover-per-reference path.
  struct PoolContext {
    /// The batch's signature pool (wire v2); its once-per-batch recovery
    /// is fanned across the worker pool before any job runs.
    const SignaturePool* pool = nullptr;
    /// Cross-batch recovered-digest LRU, consulted entry-by-entry during
    /// the pool phase and by jobs for non-pooled signatures.
    RecoveredDigestCache* cache = nullptr;
    /// Signing-key version the signatures resolve under (cache domain).
    uint64_t cache_domain = 0;
    /// Sink for the pool phase's Cost_s / cache telemetry. The phase's
    /// work is batch-level (shared by every job), so it is accounted
    /// here, not in any single job's counters. Bumped concurrently from
    /// the workers — CryptoCounters is atomic precisely for this.
    CryptoCounters* pool_counters = nullptr;
  };

  /// Verifies every job against `ds` (copied per job) using `recoverer`'s
  /// public key; returns outcomes positionally. Blocks until all jobs are
  /// done.
  std::vector<Outcome> VerifyAll(const DigestSchema& ds, Recoverer* recoverer,
                                 std::span<const Job> jobs,
                                 const PoolContext* ctx = nullptr);

  size_t num_workers() const { return pool_ ? pool_->num_threads() : 0; }

 private:
  static Outcome RunJob(const DigestSchema& ds, Recoverer* recoverer,
                        const Job& job,
                        std::span<const RecoveredSignature> recovered,
                        const PoolContext* ctx);

  /// Recovers every pool entry exactly once (cache first), fanning
  /// contiguous chunks across the worker pool.
  std::vector<RecoveredSignature> RecoverPool(Recoverer* recoverer,
                                              const PoolContext& ctx);

  Options options_;
  std::unique_ptr<ThreadPool> pool_;  ///< null in inline mode
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_QUERY_SERVICE_BATCH_VERIFIER_H_
