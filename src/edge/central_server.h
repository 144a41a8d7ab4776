#ifndef VBTREE_EDGE_CENTRAL_SERVER_H_
#define VBTREE_EDGE_CENTRAL_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "crypto/key_manager.h"
#include "crypto/rsa_signer.h"
#include "crypto/sim_signer.h"
#include "edge/partition_map.h"
#include "edge/propagation/update_log.h"
#include "edge/shard_write_domain.h"
#include "query/join_view.h"
#include "storage/table_heap.h"
#include "vbtree/vb_tree.h"

namespace vbtree {

/// The trusted central DBMS of Fig. 2: hosts the master database, holds
/// the private signing key, builds and maintains VB-trees (including
/// materialized join views), applies all updates (§3.4), and rotates
/// signing keys with validity windows.
///
/// Tables are range-sharded: every table is a set of key-range shards,
/// each an independently signed VB-tree with its own heap and update
/// log, stitched together by a signed, epoch-versioned PartitionMap
/// (edge/partition_map.h). A freshly created table has one shard
/// spanning the whole key domain (wire- and digest-compatible with the
/// pre-sharding layout); CreateTable with split points, or SplitShard
/// later, produces independent shards whose digest schemas are
/// qualified by the shard's distribution name — so no signature minted
/// for one shard can authenticate data served as another.
///
/// Distribution to edge servers is NOT driven from here: every DML op is
/// recorded in a per-shard, versioned UpdateLog, and the propagation
/// subsystem (edge/propagation/distribution_hub.h) asynchronously ships
/// the signed maps plus batched per-shard deltas — or full shard
/// snapshots for catch-up — to its subscribers. This class only exposes
/// the versioned read surface the hub consumes: ExportTableSnapshot,
/// DeltaSince, VersionOf, TruncateLog (all keyed by shard distribution
/// name), ShardNames, and PartitionMaps.
///
/// Concurrency (DESIGN.md §10): every shard owns a ShardWriteDomain —
/// a bounded DML queue drained by one dedicated signer worker that owns
/// all mutation of that shard's heap, tree and update log. InsertTuple /
/// DeleteRange resolve the owning shard(s) and enqueue; signing (the
/// dominant insert cost) proceeds in parallel across shards while each
/// shard's op stream — and therefore its UpdateLog — stays strictly
/// ordered. The paper's "single trusted writer" becomes one trusted
/// writer *per shard*; dml_mu_ shrinks to a catalog/layout lock held
/// only by DDL, bulk loads, splits and key rotation.
///
/// Cross-shard ordering: a DeleteRange spanning shards fences by
/// enqueueing one clamped op per overlapping domain and waiting on all
/// of them — each shard's log records it at that shard's own sequence
/// point (there is no global DML order, matching the per-shard version
/// streams the propagation layer already exposes). SplitShard seals
/// only the parent's domain (writers racing the seal retry against the
/// post-split layout); RotateKey quiesces all domains (it is the one
/// global sequence point). Tables referenced by a materialized join
/// view serialize their DML through the view-maintenance lock — view
/// maintenance is inherently cross-table — so only view-free tables pay
/// nothing for it.
///
/// The export/delta read surface takes per-shard shared latches and may
/// be called concurrently with DML from the propagator thread.
class CentralServer {
 public:
  struct Options {
    std::string db_name = "edgedb";
    VBTreeOptions tree_opts{};
    /// false → SimSigner (paper-sized 16-byte signed digests);
    /// true → real recoverable RSA.
    bool use_rsa = false;
    int rsa_bits = 1024;
    uint64_t key_seed = 2024;
    /// SimSigner decrypt work multiplier (Cost_s emulation).
    int sim_work_factor = 1;
    /// Validity window (logical time) granted to each key version.
    uint64_t key_validity = 1'000'000;
    size_t buffer_pool_pages = 16384;
    /// Ops retained per shard for delta propagation; subscribers further
    /// behind than this are caught up with a snapshot.
    size_t update_log_window = 1 << 16;

    /// Per-shard write-domain queue bound (Enqueue backpressures there).
    size_t domain_queue_capacity = 1024;
    /// Recent-insert-key window each domain retains for the auto-split
    /// policy's split-point heuristic.
    size_t domain_recent_keys = 256;

    // --- contention-driven auto-split (policy thread) ---
    /// When set, a background policy thread watches per-shard traffic
    /// (domain ops per window) and splits hot shards at the median of
    /// their recent insert keys — "split where the traffic is" — bumping
    /// the table's map epoch each time.
    bool auto_split = false;
    /// Policy evaluation cadence.
    uint64_t auto_split_interval_ms = 25;
    /// A shard is split-eligible only with at least this many domain ops
    /// in the last window (absolute traffic floor)...
    uint64_t auto_split_min_ops = 512;
    /// ...and, when the table has siblings to compare against, only when
    /// its window traffic exceeds `auto_split_skew` x the table mean
    /// (a sole shard with traffic is always considered hot).
    double auto_split_skew = 2.0;
    /// Never split shards holding fewer rows than this.
    size_t auto_split_min_rows = 256;
    /// Stop splitting a table at this many shards.
    size_t auto_split_max_shards = 16;
    /// Minimum time between two splits of the same table (lets traffic
    /// re-distribute before re-evaluating).
    uint64_t auto_split_cooldown_ms = 100;
  };

  static Result<std::unique_ptr<CentralServer>> Create(Options options);
  ~CentralServer();  ///< Stops the policy thread and seals every domain.

  const std::string& db_name() const { return options_.db_name; }
  const Catalog& catalog() const { return catalog_; }
  KeyDirectory* key_directory() { return &key_directory_; }
  uint32_t current_key_version() const { return key_version_; }

  // --- DDL / loading ---

  /// Creates a table as one shard covering the whole key domain (shard
  /// id 0, plain table name — the pre-sharding layout).
  Result<table_id_t> CreateTable(const std::string& name, Schema schema);

  /// Creates a table pre-split at `split_points` (strictly ascending;
  /// each point starts a new shard): k points → k+1 shards with fresh
  /// ids 1..k+1, each signed under its shard-qualified digest schema.
  /// Table names must not contain '#' (reserved for shard qualifiers).
  Result<table_id_t> CreateTable(const std::string& name, Schema schema,
                                 const std::vector<int64_t>& split_points);

  /// Bulk-loads rows (routed to their owning shards and sorted by key)
  /// into the shard heaps and builds each shard's VB-tree with every
  /// digest signed.
  Status LoadTable(const std::string& name, std::vector<Tuple> rows);

  Result<const TableInfo*> DescribeTable(const std::string& name) const {
    return catalog_.GetTable(name);
  }

  // --- updates (§3.4; only the central server can sign) ---
  /// Routes the row to its owning shard's write domain and waits for the
  /// domain worker to apply (heap insert, signed tree insert, log
  /// append). Concurrent callers hitting different shards sign in
  /// parallel; callers hitting one shard serialize in enqueue order.
  Status InsertTuple(const std::string& name, const Tuple& tuple);
  /// Pipelined variant: returns as soon as the op is queued; the future
  /// resolves with the apply status. Per-shard order is the caller's
  /// enqueue order. (Tables referenced by a join view fall back to the
  /// serialized path and return an already-resolved future.)
  Result<std::future<Status>> InsertTupleAsync(const std::string& name,
                                               const Tuple& tuple);
  Result<size_t> DeleteRange(const std::string& name, int64_t lo, int64_t hi);

  /// Splits the shard of `name` owning `split_key` into two shards with
  /// fresh ids: [lo, split_key-1] and [split_key, hi]. Incremental
  /// (DESIGN.md §10): the parent's domain is sealed and drained, live
  /// rows are copied to the children's heaps, and each child tree is
  /// built by VBTree::CloneRange — reusing the parent's already-signed
  /// subtrees, so only the O(height) trim boundary plus the root binding
  /// is re-signed, not O(rows). The children stay in the parent's digest
  /// domain (their map entries carry `lineage`; their VOs anchor at the
  /// signed shard binding), until the next key rotation re-homes them.
  /// Bumps the map epoch and re-signs the map; the parent shard's id
  /// never reappears, so its signatures cannot verify as any current
  /// shard. The parent's update log lineage ends here — subscribers pick
  /// the new shards up by snapshot under the new map epoch.
  Status SplitShard(const std::string& name, int64_t split_key);

  /// Shards of `name`, ascending by range (introspection for tests).
  Result<size_t> ShardCount(const std::string& name) const;

  /// Per-shard write-pipeline telemetry (TELEMETRY.md): the vbtree_cli
  /// stats surface, and what the auto-split policy consumes.
  struct DomainStats {
    std::string dist_name;
    int64_t lo = 0;
    int64_t hi = 0;
    uint64_t ops_enqueued = 0;
    uint64_t ops_applied = 0;
    size_t queue_depth = 0;
    size_t queue_depth_peak = 0;
    size_t queue_depth_p99 = 0;
    /// Signer invocations this shard's tree has made (deterministic for
    /// a given op stream — the o(rows) incremental-split gate and the
    /// sign_calls_per_insert bench counter read this).
    uint64_t sign_calls = 0;
    uint64_t tree_version = 0;
    size_t rows = 0;
  };
  /// Stats for every shard of `name`, ascending by range.
  Result<std::vector<DomainStats>> TableDomainStats(
      const std::string& name) const;

  /// Auto-splits performed by the policy thread since startup.
  uint64_t splits_triggered() const {
    return splits_triggered_.load(std::memory_order_relaxed);
  }

  /// Copy of the current signed PartitionMap of a table or join view.
  Result<PartitionMap> TablePartitionMap(const std::string& name) const;

  // --- materialized join views (§3.3 Join) ---
  /// Materializes the view and signs its one-shard PartitionMap (shard id
  /// 0, plain view name, epoch 1): a view is read like any unsplit table.
  Status CreateJoinView(const JoinSpec& spec);
  Result<const JoinView*> GetJoinView(const std::string& view_name) const;

  // --- versioned distribution surface (consumed by DistributionHub) ---

  /// Serializes one shard (by distribution name) or view: schema, rows
  /// with their Rids, and the complete VB-tree (which carries the
  /// replica version). Plain table names resolve to the table's sole
  /// id-0 shard.
  Result<std::vector<uint8_t>> ExportTableSnapshot(
      const std::string& name) const;

  /// Batch of up to `max_ops` logged ops replaying shard `name` forward
  /// from `from_version`. Does not consume the log — several subscribers
  /// at different versions can each be served. kInvalidArgument when
  /// `from_version` predates the retained window (snapshot required).
  /// Shards only (views are propagated by snapshot).
  Result<UpdateBatch> DeltaSince(const std::string& name,
                                 uint64_t from_version,
                                 size_t max_ops = ~size_t{0}) const;

  /// Whether DeltaSince can serve `from_version` for shard `name`.
  Result<bool> DeltaCovers(const std::string& name,
                           uint64_t from_version) const;

  /// Drops logged ops at or below `version` (the hub calls this once all
  /// subscribers have applied them).
  Status TruncateLog(const std::string& name, uint64_t version);

  /// Current replica version of a shard or view (its VB-tree version):
  /// the number of mutations since load. Monotone per shard lineage.
  Result<uint64_t> VersionOf(const std::string& name) const;

  /// Ops applied to shard `name` since load. Alias of VersionOf.
  Result<uint64_t> TableVersion(const std::string& name) const {
    return VersionOf(name);
  }

  /// Names of all base tables / materialized views, in creation order.
  std::vector<std::string> TableNames() const;
  std::vector<std::string> ViewNames() const;

  /// Distribution names of every shard of every base table, in table
  /// creation order, shards ascending by range — the per-shard version
  /// streams the propagation hub subscribes edges to.
  std::vector<std::string> ShardNames() const;

  /// The signed maps the hub ships ahead of shard data: every table's,
  /// then every join view's.
  struct MapInfo {
    std::string table;
    uint64_t epoch = 0;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
  };
  std::vector<MapInfo> PartitionMaps() const;

  // --- key management (§3.4 delayed update propagation) ---
  /// Expires the current key version at `now`, generates a new key, and
  /// re-signs every shard tree, view and partition map under it. Bumps
  /// every shard and view version, bumps every map epoch, and resets the
  /// update logs: replicas must re-snapshot.
  Status RotateKey(uint64_t now);

  /// Cost-model inputs for one shard's snapshot (tuple count + column
  /// count), read while holding the shard alive — safe against a
  /// concurrent SplitShard retiring the shard (the propagation hub's
  /// kCostBased policy calls this from the propagator thread).
  struct SnapshotShape {
    size_t num_tuples = 0;
    size_t num_cols = 0;
  };
  Result<SnapshotShape> SnapshotShapeOf(const std::string& name) const;

  // --- direct access for tests and benches ---
  /// Resolves a shard distribution name (or the plain name of a
  /// single-shard table, or a view name) to its tree/heap. NOT
  /// split-safe: the raw pointer dangles if SplitShard retires the
  /// shard — test/bench hooks only, never called concurrently with
  /// splits.
  VBTree* tree(const std::string& name);
  TableHeap* heap(const std::string& name);

 private:
  explicit CentralServer(Options options)
      : options_(std::move(options)), catalog_(options_.db_name) {}

  /// One key-range shard: its own heap, independently signed VB-tree,
  /// and retained op log (an independent version stream).
  struct ShardState {
    uint32_t shard_id = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    std::string dist_name;
    std::unique_ptr<TableHeap> heap;
    std::unique_ptr<VBTree> tree;
    /// Retained op log; head always equals tree->version().
    UpdateLog log;
    /// Guards heap + log against concurrent export (tree self-latches).
    mutable std::shared_mutex mu;
    /// The shard's write pipeline: all DML for this shard funnels
    /// through here (one signer worker, FIFO). Sealed when the shard is
    /// retired by a split.
    std::unique_ptr<ShardWriteDomain> domain;

    explicit ShardState(size_t log_window) : log(log_window) {}
  };

  struct TableState {
    Schema schema;
    /// Current signed map and its serialized form (shipped by the hub).
    PartitionMap map;
    std::shared_ptr<const std::vector<uint8_t>> map_bytes;
    /// Ascending by lo. shared_ptr so exports racing a SplitShard keep
    /// the retiring shard alive until they finish.
    std::vector<std::shared_ptr<ShardState>> shards;
    uint32_t next_shard_id = 1;
    /// Guards the shard vector + map against concurrent layout changes.
    mutable std::shared_mutex layout_mu;
  };

  struct ViewState {
    std::unique_ptr<JoinView> view;
    /// The view's signed one-shard map and its serialized form.
    PartitionMap map;
    std::shared_ptr<const std::vector<uint8_t>> map_bytes;
    /// Guards the view heap and map against concurrent export.
    mutable std::shared_mutex mu;
  };

  Status MakeSigner(uint64_t seed, std::unique_ptr<Signer>* signer,
                    std::shared_ptr<Recoverer>* recoverer);
  Result<TableState*> GetTableState(const std::string& name);
  Result<const TableState*> GetTableState(const std::string& name) const;

  /// Resolves a shard distribution name ("t", "t#3") to its ShardState.
  Result<std::shared_ptr<ShardState>> ResolveShard(
      const std::string& dist_name) const;
  /// The shard of `table` owning `key` (layout latch taken shared).
  std::shared_ptr<ShardState> ShardForKey(const TableState& table,
                                          int64_t key) const;

  /// Shard scaffolding (heap, names, write domain) without a tree —
  /// split children receive CloneRange output instead.
  Result<std::shared_ptr<ShardState>> MakeShardShell(const std::string& table,
                                                     const Schema& schema,
                                                     uint32_t shard_id,
                                                     int64_t lo, int64_t hi);
  /// Builds an empty signed shard tree for [lo, hi].
  Result<std::shared_ptr<ShardState>> MakeShard(const std::string& table,
                                                const Schema& schema,
                                                uint32_t shard_id, int64_t lo,
                                                int64_t hi);

  /// Op bodies, run on the owning shard's domain worker. Self-contained:
  /// they take only the shard's own latches.
  Status ApplyInsert(ShardState* shard, const Tuple& tuple);
  Status ApplyDelete(ShardState* shard, int64_t lo, int64_t hi,
                     size_t* removed);

  /// Serialized DML for tables referenced by a join view (maintenance is
  /// cross-table; views_mu_ restores the pre-pipeline total order).
  Status InsertTupleSerial(const std::string& name, const Tuple& tuple);
  Result<size_t> DeleteRangeSerial(TableState* state, const std::string& name,
                                   int64_t lo, int64_t hi);
  /// Join-view maintenance for one inserted row (caller holds views_mu_).
  Status MaintainViewsOnInsert(const std::string& name, const Tuple& tuple);

  /// Contention-driven auto-split policy thread.
  void PolicyLoop();
  void RunSplitPolicyOnce(
      std::map<std::string, uint64_t>* ops_baseline,
      std::map<std::string, std::chrono::steady_clock::time_point>*
          last_split);
  /// Recomputes, signs and re-serializes `table`'s map from its current
  /// shard layout (layout latch must be held exclusively by the caller,
  /// or the table not yet published).
  Status SignTableMap(TableState* table);
  /// Signs `map` as it stands under the current key and re-serializes it
  /// into `*bytes`.
  Status SignMap(PartitionMap* map,
                 std::shared_ptr<const std::vector<uint8_t>>* bytes);

  /// Finds all rows of `table` matching `value` on column `col` (join
  /// maintenance helper); scans every shard.
  Result<std::vector<Tuple>> MatchingRows(const std::string& table, size_t col,
                                          const Value& value) const;

  Status ExportHeapAndTree(const std::string& name, const Schema& schema,
                           const TableHeap* heap, const VBTree* tree,
                           ByteWriter* w) const;

  Options options_;
  Catalog catalog_;
  KeyDirectory key_directory_;
  /// All signers ever created stay alive: trees hold raw pointers, and old
  /// snapshots may still verify against archived versions.
  std::vector<std::unique_ptr<Signer>> signers_;
  Signer* current_signer_ = nullptr;
  uint32_t key_version_ = 0;
  uint64_t key_valid_from_ = 0;

  std::unique_ptr<InMemoryDiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;

  /// Catalog/layout lock: DDL, bulk loads, splits and key rotation only.
  /// The per-row write path never takes it — rows flow through the
  /// owning shard's ShardWriteDomain instead (DESIGN.md §10).
  std::mutex dml_mu_;
  /// Guards the table/view maps themselves (DDL vs lookups). Also held
  /// shared across the view-membership check *and* the domain enqueue on
  /// the fast DML path, so CreateJoinView (which registers view_refs_
  /// under the exclusive lock, then drains the base tables' domains)
  /// can never miss an in-flight fast-path op.
  mutable std::shared_mutex maps_mu_;
  std::map<std::string, std::unique_ptr<TableState>> tables_;
  std::map<std::string, std::unique_ptr<ViewState>> views_;
  std::vector<std::string> table_order_;
  std::vector<std::string> view_order_;
  /// Tables referenced by at least one materialized join view (guarded
  /// by maps_mu_): their DML takes the serialized views_mu_ path.
  std::multiset<std::string> view_refs_;
  /// Serializes DML on view-referenced tables and all view maintenance.
  /// Ops queued on domain workers NEVER take this lock (deadlock-freedom
  /// rule: a caller may hold it while waiting on a domain future).
  std::mutex views_mu_;

  // --- auto-split policy thread ---
  std::thread policy_thread_;
  std::mutex policy_mu_;
  std::condition_variable policy_cv_;
  bool stopping_ = false;
  std::atomic<uint64_t> splits_triggered_{0};
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_CENTRAL_SERVER_H_
