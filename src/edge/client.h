#ifndef VBTREE_EDGE_CLIENT_H_
#define VBTREE_EDGE_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/counting_recoverer.h"
#include "crypto/key_manager.h"
#include "crypto/recovered_digest_cache.h"
#include "edge/edge_server.h"
#include "edge/partition_map.h"
#include "edge/propagation/transport.h"
#include "edge/query_service/batch_verifier.h"
#include "edge/query_service/query_service.h"
#include "query/trust.h"
#include "vbtree/verifier.h"

namespace vbtree {

class EdgeDirector;
class LazyAuditor;

/// A trusted DB client (Fig. 2): sends queries to an edge server over the
/// (simulated) network, then authenticates each answer against its VO
/// using the central server's public key — resolved through the
/// KeyDirectory so results signed with an expired key version are
/// rejected (§3.4).
///
/// Every table and join view is a signed PartitionMap of one or more
/// shards, and every read is a batch (a single query is a batch of one):
/// the edge scatters it and answers with the map it scattered under; the
/// client authenticates that map (signature + epoch floor), derives which
/// shards each query must touch, and verifies one VO per shard under that
/// shard's qualified digest schema. Cross-shard completeness holds because (a)
/// the map's signed boundaries dictate exactly which k shards a range
/// intersects and the client demands exactly those k VOs, (b) each
/// per-shard VO proves completeness of the range clamped to the shard's
/// signed boundaries, and (c) adjacent clamped ranges meet exactly at
/// those boundaries — so the union covers the whole query range with no
/// key the edge could silently drop between shards.
///
/// The client also tracks the highest replica version it has seen per
/// shard, plus a per-table partition-map epoch floor: an answer from a
/// less up-to-date edge is flagged stale, and a map older than one this
/// client has already authenticated (e.g. replayed from before a shard
/// split) is rejected outright.
///
/// Not internally synchronized: use one Client per thread.
class Client {
 public:
  Client(std::string db_name, KeyDirectory* keys)
      : db_name_(std::move(db_name)),
        keys_(keys),
        digest_cache_(std::make_shared<RecoveredDigestCache>()) {}

  /// Replaces (or, with nullptr, disables) the cross-batch
  /// recovered-digest cache. Client libraries embedding many Clients can
  /// share one instance — the cache is internally sharded and
  /// thread-safe even though the Client itself is not.
  void set_digest_cache(std::shared_ptr<RecoveredDigestCache> cache) {
    digest_cache_ = std::move(cache);
  }
  RecoveredDigestCache* digest_cache() const { return digest_cache_.get(); }

  /// Attaches the background auditor that lazy trust modes defer
  /// verification to (required before issuing a TrustMode::kLazy or
  /// kSampled batch; not owned). Many Clients may share one auditor —
  /// its submission side is thread-safe even though the Client is not.
  void set_auditor(LazyAuditor* auditor) { auditor_ = auditor; }

  /// Registers table (or join view) metadata, obtained from the central
  /// server's catalog over an authenticated channel; required before
  /// querying it. Its layout comes from the signed map on every answer.
  void RegisterTable(const std::string& table, Schema schema);

  /// Alias of RegisterTable, kept for callers written when sharded tables
  /// registered separately.
  void RegisterShardedTable(const std::string& table, Schema schema) {
    RegisterTable(table, std::move(schema));
  }

  /// Multi-statement read consistency across partition-map generations.
  /// Between Begin/EndPinnedRead, the first map epoch this client
  /// authenticates for each table is pinned; a map for the same table at
  /// any *other* epoch — older or newer — then fails verification
  /// instead of silently mixing shard layouts mid-read. Without the pin,
  /// a concurrent shard split could serve statement 1 under the pre-split
  /// layout and statement 2 under the post-split one: each answer
  /// authenticates individually, but the pair is not a consistent cut.
  /// On rejection the caller ends the pinned read and retries against
  /// the new generation. Begin clears any previous pin set; nesting is
  /// not supported (Begin while pinned just resets the pin set).
  void BeginPinnedRead();
  void EndPinnedRead();

  /// Outcome of one authenticated query.
  struct Verified {
    std::vector<ResultRow> rows;
    /// OK, or kVerificationFailure with the reason.
    Status verification;
    /// Version of the replica that served the answer (minimum across
    /// shards for a scattered query).
    uint64_t replica_version = 0;
    /// True when this answer came from a replica older than one this
    /// client already read for the same shard (monotonic-read check).
    /// Under lazy trust modes the comparison baseline is the auditor's
    /// *audited* watermark — provisional answers never define freshness.
    bool stale_replica = false;
    /// Lazy trust modes: the answer was delivered provisionally —
    /// `verification` is OK but authentication is deferred to the
    /// auditor, which alarms if the deferred check fails. Always false
    /// under kCertified.
    bool pending_audit = false;
    /// Partition-map epoch the answer verified under (>= 1 once the map
    /// authenticated).
    uint64_t map_epoch = 0;
    /// Shards this query's range touched.
    size_t shards_touched = 1;
    size_t request_bytes = 0;
    size_t result_bytes = 0;
    size_t vo_bytes = 0;
    /// Signed digests carried by the VO(s) (|D_S| + |D_P| + 1 per shard).
    size_t vo_digests = 0;
    /// Client-side Cost_h / Cost_k / Cost_s operation counts.
    CryptoCounters counters;
  };

  /// Sends `query` to `edge` as a batch of one (HandleQueryBatchBytes,
  /// no submission queue) and verifies the answer at logical time `now`
  /// exactly as QueryBatched does. Transport errors surface as the outer
  /// Status; authentication failures are reported in
  /// Verified::verification. `vo_bytes` is the response's whole VO wire
  /// cost: signature pool(s) plus pooled skeleton(s).
  Result<Verified> Query(EdgeServer* edge, const SelectQuery& query,
                         uint64_t now, Transport* net = nullptr);

  /// Outcome of one authenticated batch: positional per-query results
  /// plus the batch-level telemetry the edge reported.
  struct VerifiedBatch {
    std::vector<Verified> results;
    /// The replica version that served the batch (minimum across shard
    /// groups).
    uint64_t replica_version = 0;
    /// Batch-level monotonic-read flag (mirrored into every result).
    bool stale_replica = false;
    /// Partition-map epoch the batch verified under (0 when the map did
    /// not authenticate).
    uint64_t map_epoch = 0;
    /// Edge-side telemetry: queue wait, exec time, shared-fetch savings,
    /// per-component byte totals (aggregated over shard groups).
    BatchExecStats stats;
    size_t request_bytes = 0;
    /// Sub-queries executed per shard: (shard_id, count).
    std::vector<std::pair<uint32_t, uint64_t>> shard_query_counts;
    /// Client-side crypto work for the whole batch: the pool-recovery
    /// phase (batch-level, not attributable to one query) plus every
    /// per-query outcome. recovers == actual p() calls; cache fields
    /// count digest-cache traffic.
    CryptoCounters crypto;
    /// Wall time spent authenticating (key resolution, pool recovery,
    /// per-query verification).
    uint64_t verify_us = 0;
    /// Wall time spent authenticating the partition map (signature
    /// recovery + layout checks; ~0 on the byte-identical cache hit).
    uint64_t map_verify_us = 0;
    /// Always zero: the signed-top memo it counted is gone (every VO
    /// pools its signed top, so the pool phase recovers it once per
    /// batch). The field stays because the frozen benchmark/vbt_bench.cc
    /// reads it.
    uint64_t top_memo_hits = 0;
    /// Queries delivered provisionally with a deferred-verification
    /// ticket (0 under kCertified).
    uint64_t deferred_queries = 0;

    // --- failover telemetry (the director overload; zero otherwise) ---
    /// Edge attempts made for this batch (1 = first try served it).
    uint64_t attempts = 0;
    /// Attempts that switched to a different edge than the previous one.
    uint64_t failovers = 0;
    /// True when no healthy fresh edge could serve: the answer is a
    /// stale-but-verified floor or the central fallback — never silent.
    bool degraded = false;
    /// "" | "stale_floor" | "central".
    std::string degraded_mode;
    /// Edge (or central service) that served the returned answer.
    std::string served_by;
  };

  /// Ships a QueryBatch through `service`'s submission queue (full wire
  /// path) and authenticates every per-query VO — fanned across
  /// `verifier`'s worker pool when one is supplied, inline otherwise.
  /// The response is scatter-gather: the client re-authenticates the
  /// embedded map, recomputes the scatter plan, and verifies each shard
  /// group under its own digest schema before stitching per-query results
  /// back together. Per-shard monotonic-read watermarks only advance on
  /// responses that authenticated.
  ///
  /// `batch.trust_mode` selects the authentication schedule: kCertified
  /// verifies each shard group synchronously through
  /// BatchVerifier::VerifyGroup; kLazy/kSampled return immediately with
  /// `pending_audit` results and move each group — schema, binding,
  /// queries, response, `now` — into a ticket for the attached
  /// LazyAuditor (set_auditor), which runs the same VerifyGroup later and
  /// whose queue backpressures this call when full. Map authentication
  /// and scatter-plan validation stay synchronous in every mode (they
  /// gate response *shape*, not row authenticity).
  Result<VerifiedBatch> QueryBatched(QueryService* service,
                                     const QueryBatch& batch, uint64_t now,
                                     BatchVerifier* verifier = nullptr,
                                     Transport* net = nullptr);

  /// Retry/failover policy for the director overload of QueryBatched.
  struct FailoverPolicy {
    /// Total edge attempts (across all candidates) before degrading.
    size_t max_attempts = 4;
    /// Wall budget per attempt, microseconds. An attempt that exceeds it
    /// still uses its verified answer, but the edge takes a timeout
    /// strike — slow edges drift toward quarantine without the client
    /// ever discarding authenticated data. 0 = no budget.
    uint64_t attempt_budget_us = 0;
    /// Overall deadline for the whole call, microseconds (0 = none);
    /// when it expires the call degrades rather than retrying further.
    uint64_t deadline_us = 0;
    /// Jittered exponential backoff between attempts.
    uint64_t backoff_initial_us = 200;
    double backoff_factor = 2.0;
    uint64_t backoff_max_us = 10'000;
    uint64_t jitter_seed = 0x9e3779b9;
    /// Minimum replica version a non-degraded answer must carry. A
    /// verified-but-older answer is retained as the stale floor and the
    /// search continues for a fresh edge. 0 = any version is fresh.
    uint64_t min_fresh_version = 0;
    /// Last resort when no healthy fresh edge remains: a query service
    /// backed by the central server's own replica (answers flagged
    /// degraded_mode="central"). Null = no central fallback.
    QueryService* central_fallback = nullptr;
  };

  /// Failover overload: routes through `director`'s health-ordered
  /// candidates with bounded retries, jittered exponential backoff, and
  /// a per-attempt budget; failed / timed-out / verification-failed
  /// attempts are reported to the director (feeding quarantine) and the
  /// batch is re-issued against the next healthy edge. Attempts are
  /// deduped by (edge, replica version, query fingerprint): an edge that
  /// deterministically failed this exact batch at the same replica
  /// version is not retried while other candidates remain.
  ///
  /// Soundness across attempts: each attempt runs the single-edge
  /// QueryBatched verbatim, so the monotonic-read watermark only ever
  /// advances on authenticated answers (never regresses on a failed
  /// attempt) and the returned batch is a single attempt's response —
  /// one replica version, never rows mixed across edges. When no
  /// healthy fresh edge remains the call degrades *explicitly*: a
  /// stale-but-verified answer flagged `stale_floor`, or the central
  /// fallback flagged `central`, never a silent downgrade.
  Result<VerifiedBatch> QueryBatched(EdgeDirector* director,
                                     const QueryBatch& batch, uint64_t now,
                                     const FailoverPolicy& policy,
                                     BatchVerifier* verifier = nullptr,
                                     Transport* net = nullptr);

 private:
  /// Ships serialized request bytes to an edge and returns its response
  /// bytes: through a QueryService's queue, or straight to the edge.
  using Dispatch =
      std::function<Result<std::vector<uint8_t>>(std::vector<uint8_t>)>;

  /// Interned request/response channel ids, cached per edge so the query
  /// hot path records bytes without string lookups.
  struct EdgeChannels {
    Transport* transport = nullptr;
    channel_id_t up = kInvalidChannel;
    channel_id_t down = kInvalidChannel;
  };

  /// A partition map this client has authenticated, kept with its exact
  /// bytes so re-presenting the identical map skips the signature work.
  struct VerifiedMap {
    uint64_t epoch = 0;
    std::vector<uint8_t> bytes;
    PartitionMap map;
  };

  /// Verification outcome of one coalesced (single-shard) batch group.
  struct GroupOutcome {
    std::vector<Verified> results;  ///< positional with the group queries
    CryptoCounters crypto;
    uint64_t deferred = 0;  ///< queries handed to the auditor
    bool stale_replica = false;
    bool any_verified = false;
  };

  EdgeChannels* ResolveChannels(EdgeServer* edge, Transport* net);

  /// Authenticates (and caches) a partition map presented by an edge:
  /// parse, structural checks, table/db binding, epoch floor, signature
  /// recovery under the KeyDirectory. Bytes identical to the cached
  /// verified map short-circuit without copying or re-verifying. The
  /// returned pointer lives until the next VerifyMapBytes call for the
  /// same table.
  Result<const PartitionMap*> VerifyMapBytes(const std::string& table,
                                             Slice bytes, uint64_t now);

  /// The one read path behind Query and QueryBatched: serializes `batch`,
  /// runs it through `dispatch` over the transport's RPC legs, then
  /// decodes, authenticates and stitches the scatter-gather response.
  /// `edge` names the answering edge (channels, audit tickets).
  Result<VerifiedBatch> RunBatch(EdgeServer* edge, const Dispatch& dispatch,
                                 const QueryBatch& batch, uint64_t now,
                                 BatchVerifier* verifier, Transport* net);

  /// Folds one shard's verified part into a scattered query's merged
  /// outcome (rows append in shard order, cross-shard boundary check,
  /// byte/counter sums, first failure wins).
  static void MergeVerifiedPart(Verified* merged, Verified part,
                                bool first_part);

  /// Fills the per-slot fields both trust schedules report: the replica
  /// version, byte sizes, the edge-reported status and the digest count.
  static GroupOutcome FillSlots(const QueryBatchResponse& resp);

  /// Certified schedule: authenticates `group` (one shard group of a
  /// response; `shard` names it) through BatchVerifier::VerifyGroup,
  /// moves its rows into the results, and advances the shard's
  /// monotonic-read watermark when any answer authenticated.
  GroupOutcome VerifyBatchGroup(const std::string& shard,
                                BatchVerifier::Group& group,
                                BatchVerifier* verifier);

  /// Lazy schedule: delivers copies of the group's rows provisionally
  /// (`pending_audit`), flags staleness against the auditor's *audited*
  /// watermark, and moves the group into an AuditTicket for `auditor_`,
  /// which runs the same VerifyGroup later (Submit blocks when its
  /// bounded queue is full). Never touches `freshness_`: only audited
  /// answers define lazy-mode freshness. `source` is the answering edge's
  /// name, stamped on the ticket so alarms are attributable (and a
  /// suspect edge's queued tickets can be expedited).
  GroupOutcome DeferBatchGroup(const std::string& shard,
                               BatchVerifier::Group group, TrustMode mode,
                               const std::string& source);

  std::string db_name_;
  KeyDirectory* keys_;
  /// Registered schema per table or view.
  std::map<std::string, Schema> tables_;
  std::map<std::string, EdgeChannels> channels_;
  /// Highest replica version seen per shard (monotonic-read watermark).
  std::map<std::string, uint64_t> freshness_;
  /// Authenticated maps and the per-table epoch floor: a map older than
  /// one this client has accepted can never verify again.
  std::map<std::string, VerifiedMap> maps_;
  std::map<std::string, uint64_t> map_floor_;
  /// BeginPinnedRead state: per-table epoch pinned at first map
  /// authentication inside the pinned read. Pins record only after the
  /// map verified — a forged map cannot poison the pin set.
  bool pinned_read_ = false;
  std::map<std::string, uint64_t> pinned_epochs_;
  std::shared_ptr<RecoveredDigestCache> digest_cache_;
  /// Deferred-verification sink for lazy trust modes (not owned).
  LazyAuditor* auditor_ = nullptr;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_CLIENT_H_
