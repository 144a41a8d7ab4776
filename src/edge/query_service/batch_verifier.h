#ifndef VBTREE_EDGE_QUERY_SERVICE_BATCH_VERIFIER_H_
#define VBTREE_EDGE_QUERY_SERVICE_BATCH_VERIFIER_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/counters.h"
#include "crypto/key_manager.h"
#include "crypto/recovered_digest_cache.h"
#include "crypto/signer.h"
#include "edge/edge_server.h"
#include "query/predicate.h"
#include "vbtree/digest_schema.h"
#include "vbtree/verification_object.h"
#include "vbtree/verifier.h"

namespace vbtree {

/// The client's check (§3.3: recover the signed digests, recombine, compare)
/// for one shard group of a batch response. The certified client runs it
/// synchronously and the lazy auditor runs it later on the same Group, so
/// both schedules do the same crypto work (DESIGN.md §6.1, §9).
///
/// Verification is the client's dominant cost (modular exponentiations
/// per returned attribute, §4.2), and per-query VOs are independent, so
/// the work fans across a small worker pool. When the group arrived
/// through a wire-v2 SignaturePool, every distinct signature is recovered
/// exactly once up front — the pool entries are partitioned across the
/// workers, each resolved through the cross-batch RecoveredDigestCache
/// first — and the per-query verifications then consume recovered
/// digests by pool index instead of paying one Cost_s per signature
/// *reference*.
///
/// The pool is owned by the verifier and reused across calls; VerifyGroup
/// blocks until every job is done, so the caller (a Client, which is
/// single-threaded by contract) observes plain synchronous semantics.
/// Recoverers must tolerate concurrent Recover() calls (SimRecoverer and
/// RsaRecoverer both do: per-call state only).
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

  /// One shard group of a batch response and everything its check needs.
  struct Group {
    /// The shard's digest schema (its split ancestor's for a lineage
    /// shard, DESIGN.md §10).
    DigestSchema schema;
    /// Lineage shards: every VO anchors at this signed shard binding
    /// (Verifier::set_top_binding).
    std::optional<Verifier::TopBinding> binding;
    /// Projection-normalized queries, positional with resp.responses.
    std::vector<SelectQuery> queries;
    QueryBatchResponse resp;
    /// Logical delivery time: key-version freshness is judged as of the
    /// answer's delivery, so a rotation before a deferred audit cannot
    /// retroactively fail an honest answer.
    uint64_t now = 0;
  };

  struct Outcome {
    Status verification;
    /// Cost_h / Cost_k / Cost_s this slot's verification spent (per-job
    /// sink, so the parallel workers never contend on one counter block).
    CryptoCounters counters;
  };

  /// Authenticates every slot of `group` and returns one outcome per
  /// response, positionally. A slot the edge itself reported failed keeps
  /// that status, unverified (there is no VO to check).
  ///
  /// One key version per group: a group is answered from one pinned
  /// replica and a replica tree carries one key version (edges never
  /// re-sign; a rotation reaches them as a new snapshot). The recoverer
  /// is resolved once, at `group.now`; if the answered slots name more
  /// than one key version, or the directory rejects the version, every
  /// answered slot fails.
  ///
  /// `cache` (optional) is the cross-batch recovered-digest cache. The
  /// pool phase's crypto work and every slot's are added to `crypto`.
  std::vector<Outcome> VerifyGroup(const Group& group, const KeyDirectory& keys,
                                   RecoveredDigestCache* cache,
                                   CryptoCounters* crypto);

  size_t num_workers() const { return pool_ ? pool_->num_threads() : 0; }

 private:
  /// One (query, rows, VO) triple to authenticate.
  struct Job {
    const SelectQuery* query = nullptr;
    const std::vector<ResultRow>* rows = nullptr;
    const VerificationObject* vo = nullptr;
  };

  /// What every job of one group shares.
  struct PoolContext {
    const DigestSchema* schema = nullptr;
    Recoverer* recoverer = nullptr;
    const Verifier::TopBinding* binding = nullptr;
    /// The group's signature pool (wire v2), or null; its once-per-group
    /// recovery is fanned across the worker pool before any job runs.
    const SignaturePool* pool = nullptr;
    /// Cross-batch recovered-digest LRU, consulted entry by entry during
    /// the pool phase and by jobs for non-pooled signatures.
    RecoveredDigestCache* cache = nullptr;
    /// Signing-key version the signatures resolve under (cache domain).
    uint64_t cache_domain = 0;
    /// Sink for the pool phase's Cost_s / cache telemetry. The phase's
    /// work is shared by every job, so it is accounted here, not in any
    /// one job's counters. Bumped concurrently from the workers —
    /// CryptoCounters is atomic precisely for this.
    CryptoCounters* pool_counters = nullptr;
  };

  /// Verifies every job; returns outcomes positionally.
  std::vector<Outcome> VerifyAll(std::span<const Job> jobs,
                                 const PoolContext& ctx);

  static Outcome RunJob(const Job& job,
                        std::span<const RecoveredSignature> recovered,
                        const PoolContext& ctx);

  /// Recovers every pool entry exactly once (cache first), fanning
  /// contiguous chunks across the worker pool.
  std::vector<RecoveredSignature> RecoverPool(const PoolContext& ctx);

  Options options_;
  std::unique_ptr<ThreadPool> pool_;  ///< null in inline mode
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_QUERY_SERVICE_BATCH_VERIFIER_H_
