#ifndef VBTREE_EDGE_EDGE_SERVER_H_
#define VBTREE_EDGE_EDGE_SERVER_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "edge/network.h"
#include "edge/partition_map.h"
#include "query/predicate.h"
#include "storage/row_store.h"
#include "vbtree/vb_tree.h"

namespace vbtree {

/// How a compromised edge server mangles query responses (test/demo
/// hooks). Data-level tampering lives in RowStore::TamperByKey; these
/// modes corrupt the response after honest execution.
enum class ResponseTamper {
  kNone,
  /// Flip a value in the first result row (leaves the VO untouched).
  kModifyValue,
  /// Append a fabricated copy of the last row.
  kInjectRow,
  /// Silently drop the last result row.
  kDropRow,
  /// Omit the last shard group from a sharded (scatter-gather) batch
  /// response — the "hide a whole shard's answers" attack the signed
  /// PartitionMap exists to expose.
  kDropShardGroup,
};

/// A query answer as shipped from edge to client.
struct QueryResponse {
  /// Per-query outcome inside a batch (wire v2): a slot whose query
  /// failed validation or execution carries its status here with empty
  /// rows/VO, so one bad predicate does not poison its batch siblings.
  /// Note the status is asserted by the *untrusted* edge — a lying edge
  /// suppressing an answer this way is equivalent to a transport error,
  /// and the client surfaces it unverified (it can never make a wrong
  /// answer authenticate).
  Status status = Status::OK();
  std::vector<ResultRow> rows;
  VerificationObject vo;
  /// Version of the replica that served the answer (monotone per table;
  /// §3.4): lets clients detect an edge serving staler data than one
  /// they already read from.
  uint64_t replica_version = 0;
  /// Exact byte sizes of the two response components as serialized.
  size_t result_bytes = 0;
  size_t vo_bytes = 0;
};

/// Batch-level execution telemetry, shipped with the coalesced response
/// (and extended with queue timings by the QueryService).
struct BatchExecStats {
  /// Microseconds the batch waited in the QueryService submission queue
  /// before a worker picked it up (0 when executed directly).
  uint64_t queue_wait_us = 0;
  /// Microseconds of edge-side execution (traversal + VO building).
  uint64_t exec_us = 0;
  /// VO-skeleton nodes visited across the whole batch.
  uint64_t nodes_visited = 0;
  /// Replica-store tuple reads, and how many more were served from the
  /// batch-wide memo instead (shared-traversal savings).
  uint64_t tuple_fetches = 0;
  uint64_t shared_fetch_hits = 0;
  uint64_t total_result_bytes = 0;
  /// Raw (self-contained) VO bytes summed over the batch — what the
  /// batch would have cost without signature interning.
  uint64_t total_vo_bytes = 0;
  /// Actual VO wire cost: the signature pool plus every pool-referencing
  /// skeleton. 0 when the response never hit the wire (in-process
  /// dispatch).
  uint64_t vo_wire_bytes = 0;
  /// Distinct signatures interned into the batch pool.
  uint64_t sig_pool_entries = 0;
  /// Optimistic-read restarts the batch's latch-free tree traversals
  /// needed (0 on a quiesced replica).
  uint64_t olc_restarts = 0;
  /// Microseconds spent yielding between restarts or blocking on the
  /// tree's pessimistic fallback latch — the residual contention the
  /// latch-free read path leaves (0 on a quiesced replica).
  uint64_t latch_wait_us = 0;

  /// Folds another group's stats in (sharded responses aggregate their
  /// per-shard groups; queue_wait is batch-level, so the max wins).
  void Accumulate(const BatchExecStats& o) {
    queue_wait_us = queue_wait_us > o.queue_wait_us ? queue_wait_us
                                                    : o.queue_wait_us;
    exec_us += o.exec_us;
    nodes_visited += o.nodes_visited;
    tuple_fetches += o.tuple_fetches;
    shared_fetch_hits += o.shared_fetch_hits;
    total_result_bytes += o.total_result_bytes;
    total_vo_bytes += o.total_vo_bytes;
    vo_wire_bytes += o.vo_wire_bytes;
    sig_pool_entries += o.sig_pool_entries;
    olc_restarts += o.olc_restarts;
    latch_wait_us += o.latch_wait_us;
  }
};

/// The coalesced answer to a QueryBatch: positional responses — all
/// answered from ONE tree state, hence a single replica version — plus
/// batch-level stats.
struct QueryBatchResponse {
  std::vector<QueryResponse> responses;
  uint64_t replica_version = 0;
  BatchExecStats stats;
  /// The batch's signature pool, retained by the deserializer so the
  /// client's BatchVerifier can recover every distinct signature once
  /// and have the VOs consume the digests by pool index. Null when the
  /// response was built in-process. Shared because QueryBatchResponse is
  /// moved around while verification jobs hold pool-index references
  /// into it.
  std::shared_ptr<const SignaturePool> sig_pool;
};

/// One shard's coalesced answers inside a scatter-gather batch response:
/// `resp` is positional over the shard's slice queries of the scatter
/// plan (partition_map.h), which both ends derive from the same signed
/// map.
struct ShardBatchGroup {
  uint32_t shard_id = 0;
  QueryBatchResponse resp;
};

/// The edge's answer to every batch: the signed map the edge scattered
/// under (the client re-verifies it — signature, epoch floor — before
/// trusting the layout), plus one group per planned shard, ascending by
/// shard index. An unsplit table is a map of one shard, so its answer is
/// one group. The scatter resolves every shard replica under one brief
/// table-map lock, then each group executes latch-free against its
/// pinned replica — each group's answers carry the exact tree version
/// its validated reads reflect.
struct ShardedQueryBatchResponse {
  std::shared_ptr<const std::vector<uint8_t>> map_bytes;
  std::vector<ShardBatchGroup> groups;
  BatchExecStats stats;  ///< aggregate over groups
};

/// Client-side decode of a batch response: the parsed (not yet
/// trusted) map, the scatter plan recomputed from it, and the per-group
/// responses. Group count and shard ids are validated against the plan
/// during decode, so an edge omitting (or duplicating) a shard's answers
/// is rejected as kCorruption before verification even starts.
struct ShardedBatchDecoded {
  PartitionMap map;
  std::vector<uint8_t> map_bytes;
  std::vector<ShardScatter> plan;
  std::vector<ShardBatchGroup> groups;  ///< positional with `plan`
};

/// An unsecured proxy server at the network edge (Fig. 2): holds replicas
/// of table *shards* and their VB-trees, plus each table's signed
/// PartitionMap (one per table and join view, mandatory: a replica with
/// no installed map cannot be queried); executes select-project(-join-
/// view) batches by scattering them through the map; and builds a
/// verification object for every answer. It cannot sign anything — all
/// signatures in its replicas came from the central server.
///
/// Thread-safe, latch-free on the query path: `mu_` guards only the
/// table/map directory and is held for microseconds — to resolve names
/// to shared_ptr replicas (queries, shared) or to swap a replica in
/// (snapshot install, exclusive). Query execution itself runs OUTSIDE
/// `mu_` against the pinned replica: the VB-tree's optimistic lock
/// coupling (vb_tree.h) lets any number of batches traverse concurrently
/// with delta replay, each answer validated against — and labeled with —
/// one exact tree version. Delta replay serializes per replica on its
/// own `replay_mu` and never blocks readers; a replica swapped out by a
/// snapshot install stays alive (shared_ptr) until its in-flight batches
/// finish against the old consistent state.
class EdgeServer {
 public:
  explicit EdgeServer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Installs (or replaces) a shard replica from a central-server
  /// snapshot. Map-gated: when a PartitionMap for the shard's base table
  /// is installed, the shard must appear in it — a stale pre-split shard
  /// (or one from a layout this edge has moved past) is rejected with
  /// kInvalidArgument. Tables with no installed map (direct test use)
  /// are accepted ungated, but answer no query until their map arrives.
  Status InstallSnapshot(Slice snapshot);

  /// Installs a table's signed PartitionMap (shipped by the hub ahead of
  /// shard data). Epoch-monotone: an older epoch than the installed one
  /// is rejected; a newer one replaces it and drops shard replicas that
  /// are no longer in the layout.
  Status InstallPartitionMap(Slice map_bytes);

  /// Epoch of the installed map for `table`, or 0 when none.
  uint64_t MapEpoch(const std::string& table) const;

  /// Applies a serialized UpdateBatch (delta propagation, §3.4): each op
  /// is replayed structurally against the shard replica tree, with the
  /// central server's signatures spliced in. Version-gated: fails with
  /// kInvalidArgument unless the batch starts exactly at the replica's
  /// version (the propagation hub then catches the replica up with a
  /// full snapshot). Thread-safe and non-blocking for readers: replay
  /// serializes on the replica's own replay_mu while queries keep
  /// traversing latch-free — the tree's OLC protocol guarantees every
  /// concurrent answer reflects exactly one pre- or post-op version.
  Status ApplyUpdateBatch(Slice batch);

  /// Current replica version of shard `table` (number of ops applied
  /// since its snapshot lineage began), or 0 if absent.
  uint64_t TableVersion(const std::string& table) const;

  bool HasTable(const std::string& table) const {
    std::shared_lock lock(mu_);
    return tables_.count(table) != 0;
  }

  /// Scatter-gather execution of a batch over a table or view with an
  /// installed map: the batch is partitioned per-shard by the
  /// deterministic scatter plan; one brief directory-lock acquisition
  /// pins every planned shard replica, then all groups execute
  /// latch-free with shared traversals (each group gets its own
  /// batch-wide tuple memo). Every answer is built from the tree walk;
  /// the edge keeps no answer cache.
  Result<ShardedQueryBatchResponse> HandleQueryBatch(
      const QueryBatch& batch) const;

  /// Full wire path for callers that bypass a QueryService (direct
  /// dispatch, and Client::Query): the response's queue_wait_us is 0 by
  /// definition. Queued dispatch goes through
  /// QueryService::SubmitBatchBytes, which stamps the measured wait into
  /// the serialized stats.
  Result<std::vector<uint8_t>> HandleQueryBatchBytes(Slice request) const;

  /// Shared body of the bytes paths: executes `batch` and serializes the
  /// response, stamping `queue_wait_us` and reporting the
  /// serialization-time wire stats.
  Result<std::vector<uint8_t>> ExecuteBatchToWire(
      const QueryBatch& batch, uint64_t queue_wait_us,
      BatchExecStats* wire_stats) const;

  // --- hacked-server hooks ---
  /// Tampers a stored value; `table` may be a shard name or a mapped
  /// base table (routed to the owning shard).
  Status TamperValueByKey(const std::string& table, int64_t key, size_t col,
                          Value v);
  void set_response_tamper(ResponseTamper mode) { response_tamper_ = mode; }

  /// The replica tree (introspection for tests).
  const VBTree* tree(const std::string& table) const;

  /// Always-zero stub: the edge keeps no VO cache. It stays only because
  /// the frozen repository benchmark (benchmark/vbt_bench.cc) reads it.
  struct VOCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
    uint64_t invalidations = 0;
  };
  VOCacheStats vo_cache_stats(const std::string& /*table*/) const {
    return VOCacheStats{};
  }

 private:
  struct TableReplica {
    explicit TableReplica(Schema schema) : store(std::move(schema)) {}

    RowStore store;
    std::unique_ptr<VBTree> tree;
    /// Serializes delta replay against this replica (install writers);
    /// never taken by the query path — readers run latch-free against
    /// the tree and the striped store. The replica version lives in the
    /// tree itself (tree->version()), so there is no separate counter a
    /// replayer and a reader could see out of sync.
    std::mutex replay_mu;
  };

  struct InstalledMap {
    PartitionMap map;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
  };

  void ApplyResponseTamper(QueryResponse* resp) const;

  /// Body of one coalesced batch against a pinned `replica`; runs
  /// entirely outside mu_ (latch-free tree traversals). One batched walk
  /// answers every query, so the response carries the ONE tree version
  /// that walk converged on.
  Result<QueryBatchResponse> ExecuteBatchOnReplica(
      const TableReplica& replica, std::span<const SelectQuery> queries) const;

  std::string name_;
  /// Directory lock only (tables_/maps_ lookups and swaps) — held for
  /// microseconds, never across query execution or delta replay.
  mutable std::shared_mutex mu_;
  /// Shard replicas, keyed by distribution name ("t" or "t#3").
  /// shared_ptr so the query path can pin a replica and drop mu_ before
  /// executing; a snapshot install swaps the map entry and the old
  /// replica dies when its last in-flight batch completes.
  std::map<std::string, std::shared_ptr<TableReplica>> tables_;
  /// Installed partition maps, keyed by base table name.
  std::map<std::string, InstalledMap> maps_;
  ResponseTamper response_tamper_ = ResponseTamper::kNone;
};

/// Batch response wire versions, selected by the leading version byte.
enum class BatchWire : uint8_t {
  /// One shard group: batch-level signature pool + pool-referencing VOs
  /// + per-query statuses + stats trailer. Only ever embedded in a v3
  /// response.
  kV2 = 2,
  /// The response every batch gets: the signed map bytes followed by one
  /// embedded v2 group per planned shard.
  kSharded = 3,
};

/// Shard-group (v2) wire format: version byte, replica version once, a
/// batch-level signature pool, positional status/rows/VO blocks, stats
/// trailer. Deserialization needs the (normalized) queries the batch was
/// built from, for the per-query projections, and validates that the
/// response count equals the query count (kCorruption otherwise — an
/// untrusted edge must not be able to drive positional indexing out of
/// bounds). The trailer's vo_wire_bytes / sig_pool_entries fields are
/// computed during serialization from what actually hit the wire.
/// `wire_stats`, when supplied, receives a copy of resp.stats with the
/// serialization-time vo_wire_bytes / sig_pool_entries filled in (the
/// serving side's accounting hook; the receiving side gets the same
/// numbers from the trailer).
void SerializeQueryBatchResponse(const QueryBatchResponse& resp, ByteWriter* w,
                                 BatchExecStats* wire_stats = nullptr);
Result<QueryBatchResponse> DeserializeQueryBatchResponse(
    ByteReader* r, const Schema& schema,
    const std::vector<SelectQuery>& queries);

/// Batch response (v3) framing: version byte, the serialized
/// signed map, then per-group shard id + embedded v2 response.
/// `wire_stats` receives the group-aggregated serialization-time stats.
void SerializeShardedQueryBatchResponse(const ShardedQueryBatchResponse& resp,
                                        ByteWriter* w,
                                        BatchExecStats* wire_stats = nullptr);

/// Decodes a v3 response against the original (normalized, base-table)
/// `queries`: parses the embedded map, recomputes the scatter plan from
/// it, and validates group count / shard ids / per-group response counts
/// against the plan — an edge omitting a shard's answers fails here with
/// kCorruption. The map itself is NOT authenticated here; the caller
/// (Client) must Verify() it before trusting the layout.
Result<ShardedBatchDecoded> DeserializeShardedQueryBatchResponse(
    ByteReader* r, const Schema& schema,
    const std::vector<SelectQuery>& queries);

}  // namespace vbtree

#endif  // VBTREE_EDGE_EDGE_SERVER_H_
