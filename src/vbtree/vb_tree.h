#ifndef VBTREE_VBTREE_VB_TREE_H_
#define VBTREE_VBTREE_VB_TREE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree_config.h"
#include "catalog/tuple.h"
#include "common/olc.h"
#include "common/result.h"
#include "common/serde.h"
#include "crypto/signer.h"
#include "query/predicate.h"
#include "vbtree/digest_schema.h"
#include "vbtree/verification_object.h"

namespace vbtree {

/// Construction parameters for a VB-tree. The digest rule is fixed (see
/// Insert and DESIGN.md §1).
struct VBTreeOptions {
  BTreeConfig config{};
  /// Version of the private key used to sign digests (§3.4).
  uint32_t key_version = 1;
};

/// Execution statistics for one query, used by the benchmark harness.
struct VBQueryStats {
  /// Height of the enveloping subtree (paper formula (8)).
  int subtree_height = 0;
  /// Nodes of the enveloping subtree the edge server touched.
  size_t nodes_visited = 0;
};

/// Cross-query statistics for one batched execution (ExecuteSelectBatch):
/// how much tree/store work the batch shared compared to running its
/// queries serially.
struct VBBatchStats {
  /// Total VO-skeleton nodes visited across the batch.
  size_t nodes_visited = 0;
  /// Tuple fetches that reached the replica store (including fetches of
  /// attempts later discarded by an optimistic restart).
  size_t tuple_fetches = 0;
  /// Tuple fetches served from the batch-scoped memo (overlapping query
  /// envelopes share each tuple read + deserialization).
  size_t shared_fetch_hits = 0;
  /// Optimistic-read restarts across the batch (version bumps / locked
  /// nodes observed mid-traversal, plus test-injected restarts).
  uint64_t olc_restarts = 0;
  /// Microseconds spent yielding between restarts or blocking on the
  /// pessimistic fallback latch — the contention the latch-free path is
  /// designed to avoid (0 on a quiesced tree).
  uint64_t latch_wait_us = 0;
  /// The single tree version every answer in the batch reflects.
  uint64_t read_version = 0;
};

/// A query answer as produced by an edge server: result rows plus the VO.
struct QueryOutput {
  /// Per-query outcome inside a batch: validation or execution failures
  /// of ONE query no longer poison its batch siblings — the failed slot
  /// carries its status here (rows/vo empty) while the rest authenticate
  /// normally.
  Status status = Status::OK();
  std::vector<ResultRow> rows;
  VerificationObject vo;
  VBQueryStats stats;
  /// Tree version this answer's validated read reflects (the replica
  /// version an edge stamps on the response).
  uint64_t read_version = 0;

  /// Exact serialized size of the result rows (excludes the VO).
  size_t ResultBytes() const {
    size_t n = 0;
    for (const ResultRow& r : rows) n += r.SerializedSize();
    return n;
  }
};

/// The verifiable B-tree (§3.2): a B+-tree over the primary key where
///  * each leaf entry stores the signed tuple digest s(t_j) and the signed
///    attribute digests s(a_j1..a_jm) of its tuple,
///  * every node carries a signed node digest derived from its children
///    with the commutative hash, and
///  * the root digest is signed in the tree metadata.
///
/// The *central server* constructs VB-trees (it holds the Signer) and
/// applies updates; *edge servers* hold deserialized replicas (Signer
/// absent) and answer queries by building verification objects.
///
/// Concurrency (optimistic lock coupling): every node carries an atomic
/// version word (lock bit + counter) and an immutable content snapshot.
/// Readers traverse latch-free, recording the word of every node they
/// read, and validate the whole set after the traversal — a bump or lock
/// bit means a writer overlapped and the read restarts from the root
/// (escalating to a brief shared acquisition of the writer mutex after
/// repeated restarts). Writers — serialized by an internal exclusive
/// mutex — clone-on-write the nodes they touch, publish new snapshots,
/// and release each touched word with a version bump; replaced snapshots
/// are reclaimed epoch-based so in-flight readers never dereference
/// freed memory. A validated read therefore saw one consistent signed
/// tree state and is labeled with its exact version. This replaces §3.4's
/// digest-locking protocol: no operation takes a per-digest lock.
class VBTree {
 public:
  /// Fetches the row stored under a leaf entry's key; supplied by the
  /// owner of the rows (RowStore::Fetcher — at an edge, a replica possibly
  /// tampered with, which the client-side Verifier will expose).
  using TupleFetcher = std::function<Result<Tuple>(int64_t key)>;

  VBTree(DigestSchema digest_schema, VBTreeOptions opts, Signer* signer);
  ~VBTree();

  VBTree(const VBTree&) = delete;
  VBTree& operator=(const VBTree&) = delete;

  /// Builds a packed tree from rows sorted by strictly increasing key,
  /// computing and signing every digest (attribute, tuple, node, root).
  Status BulkLoad(std::span<const Tuple> rows);

  /// Inserts one tuple (§3.4 Insert). The leaf folds the tuple digest in
  /// with one Extend (D ← D^{t} mod n, valid because a leaf digest is G
  /// raised to the product of its tuple digests); every other changed
  /// node — split halves and the path above the leaf — recomputes with
  /// CombineDigests over its children. Every changed node is re-signed.
  Status Insert(const Tuple& tuple);

  /// Deletes all keys in [lo, hi] (§3.4 Delete): removes the entries,
  /// then recomputes digests bottom-up. Nodes are freed only when empty
  /// (the Johnson-Shasha policy the paper adopts). Returns the number of
  /// deleted tuples.
  Result<size_t> DeleteRange(int64_t lo, int64_t hi);

  /// Edge-server query execution (§3.3): selection on the key range,
  /// conjunctive non-key conditions (gaps), and projection. Returns the
  /// result rows in key order plus the verification object. A batch of
  /// one: ExecuteSelectBatch({query}), with the slot's status returned as
  /// the error.
  Result<QueryOutput> ExecuteSelect(const SelectQuery& query,
                                    const TupleFetcher& fetch) const;

  /// Batched edge-server execution: every query traverses latch-free and
  /// the batch converges on ONE validated tree version (stragglers whose
  /// read sets a writer touched re-execute; after bounded passes the
  /// batch finishes under a brief shared acquisition of the writer
  /// mutex) — so the coalesced response still carries a single replica
  /// version, exactly as under the old batch-wide latch. Work is shared
  /// across queries: tuple fetches are memoized batch-wide (entries
  /// commit to the memo only from validated attempts, so a restarted
  /// read can never leak a stale tuple to its siblings). Outputs are
  /// positional (outs[i] answers queries[i], with its own VO). Per-query
  /// validation or execution failures are carried in outs[i].status
  /// instead of failing the batch — one bad predicate no longer poisons
  /// N−1 good answers; the outer Result is reserved for tree-level
  /// errors.
  Result<std::vector<QueryOutput>> ExecuteSelectBatch(
      std::span<const SelectQuery> queries, const TupleFetcher& fetch,
      VBBatchStats* batch_stats = nullptr) const;

  Digest root_digest() const;
  Signature root_signature() const;

  // --- shard placement binding (lineage shards, DESIGN.md §10) ----------
  //
  // An incremental shard split (CloneRange) hands the child the parent's
  // digest-schema name, so all per-tuple/per-node signatures transfer
  // without re-signing. The child then carries a *placement*: its own
  // distribution name and key range, plus a signed binding digest
  // ShardBindingDigest(db, verify_name, lo, hi, root_digest) stored with
  // the root snapshot. Trees with a placement anchor every VO at the
  // root's binding signature instead of the envelope top's node
  // signature (FindEnvelopeTop), and the binding is refreshed —
  // deterministically, riding the same signature log / replay feed as
  // node re-signs — whenever a committed write changes the root digest.

  struct ShardPlacement {
    std::string verify_name;  ///< the shard's own distribution name
    int64_t lo = 0;           ///< inclusive key range from the PartitionMap
    int64_t hi = 0;
  };

  /// Installs a placement and signs the current root's binding. Central
  /// side, pre-publication only (no concurrent readers yet): CloneRange
  /// calls it on the freshly trimmed child, tests may call it directly
  /// after BulkLoad.
  Status BindPlacement(std::string verify_name, int64_t lo, int64_t hi);

  /// Null when the tree has no placement. The pointee is immutable.
  const ShardPlacement* placement() const {
    return placement_.load(std::memory_order_acquire);
  }

  /// Deep-copies this tree — shells, snapshots, digests and signatures —
  /// then trims the copy to [lo, hi] with two boundary
  /// range-deletes and binds `verify_name` over the result. Leaf entries
  /// address rows by key, so the copy points at the same rows wherever
  /// they are stored, and its signatures stay valid verbatim; only the
  /// two root-to-boundary paths (plus the binding) are re-signed —
  /// O(height), not O(rows), the whole point of incremental SplitShard.
  /// The returned tree starts at version 0 with this tree's key version.
  /// Caller must quiesce writers on this tree (the copy holds writer_mu_
  /// shared, but a sound split wants a drained DML queue anyway).
  Result<std::unique_ptr<VBTree>> CloneRange(std::string verify_name,
                                             int64_t lo, int64_t hi) const;

  /// Signer invocations this tree has made (attribute/tuple/node/binding
  /// signatures), monotone. The split-cost gate: after CloneRange the
  /// child's count is O(height), and sign calls per insert derive from
  /// deltas of this counter.
  uint64_t sign_calls() const {
    return sign_calls_.load(std::memory_order_relaxed);
  }

  uint32_t key_version() const {
    // Atomic shadow of opts_.key_version: the latch-free query path stamps
    // it into every VO while ResignAll (exclusive writer) may be rotating.
    return key_version_.load(std::memory_order_acquire);
  }

  /// Monotone replica version: the number of mutations (inserts, range
  /// deletes, re-signs) applied since bulk load. Carried through
  /// serialization, so an edge replica reports exactly the central
  /// version its tree reflects; clients compare versions across edges to
  /// detect stale replicas (§3.4 delayed update propagation).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  const DigestSchema& digest_schema() const { return ds_; }
  const VBTreeOptions& options() const { return opts_; }

  size_t size() const {
    return static_cast<size_t>(size_.load(std::memory_order_acquire));
  }
  int height() const;
  uint64_t node_count() const;

  /// Test hook for the OLC stress suite: the next `n` optimistic read
  /// attempts are forcibly failed (counted as restarts) before
  /// validation, as if a writer had interfered — proving the restart
  /// path re-executes to the same verified answers and that every
  /// restart is accounted.
  void InjectRestartsForTest(int64_t n) {
    inject_restarts_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Test hook for the batch label-convergence loop: called at the top
  /// of every convergence pass with (pass, /*pre_fallback_lock=*/false),
  /// and again with (pass, true) inside the final pass after the
  /// lock-free stale scan but BEFORE the fallback writer_mu_ hold is
  /// acquired. The second point is exactly the window where a writer
  /// commit used to slip a slot past re-validation; a hook that mutates
  /// the tree there deterministically reproduces that interleaving. Not
  /// thread-safe against concurrent batches — install before use.
  void SetBatchLabelHookForTest(std::function<void(int, bool)> hook) {
    batch_label_hook_ = std::move(hook);
  }

  /// Recomputes every digest bottom-up and compares with the stored ones;
  /// kCorruption on any mismatch. Test/diagnostic hook.
  Status CheckDigestConsistency() const;

  /// Edge-side self-audit: recovers every node signature with the public
  /// key and checks it matches the stored digest, and that the digest
  /// hierarchy is internally consistent. Lets an edge server detect local
  /// corruption (disk faults, partial tampering) proactively rather than
  /// through failing client queries. Returns the number of nodes audited;
  /// kVerificationFailure names the first mismatching node.
  Result<size_t> AuditSignatures(Recoverer* recoverer) const;

  /// Structural B+-tree invariants (ordering, separator bounds, uniform
  /// leaf depth).
  Status CheckStructure() const;

  /// All keys in order (test hook).
  std::vector<int64_t> AllKeys() const;

  /// Keys in [lo, hi], in order (used e.g. for join-view maintenance on
  /// range deletes).
  std::vector<int64_t> KeysInRange(int64_t lo, int64_t hi) const;

  /// Serializes the complete tree (metadata + all nodes with digests and
  /// signatures) for distribution to edge servers.
  void SerializeTo(ByteWriter* w) const;

  /// Reconstructs a tree from SerializeTo output. `signer` may be null
  /// (edge servers cannot sign; Insert/DeleteRange then fail).
  static Result<std::unique_ptr<VBTree>> Deserialize(
      ByteReader* r, Signer* signer = nullptr);

  /// Routes Cost_h/Cost_k accounting for digest computation.
  void set_counters(CryptoCounters* counters) {
    counters_ = counters;
    ds_.set_counters(counters);
  }

  /// Key rotation (§3.4 delayed update propagation): recomputes and
  /// re-signs every digest in the tree under `new_signer`, stamping
  /// `new_key_version`. `fetch` supplies tuple values for recomputing
  /// attribute digests (the central server reads its own base table).
  /// When `rebind_table_name` is non-null the digest schema's table name
  /// is swapped to it first and any placement is cleared — how RotateKey
  /// retires a lineage shard: the O(rows) re-sign it must pay anyway
  /// re-homes every signature under the shard's own name, so the root
  /// binding (and its VO-anchoring cost) is no longer needed.
  Status ResignAll(Signer* new_signer, uint32_t new_key_version,
                   const TupleFetcher& fetch,
                   const std::string* rebind_table_name = nullptr);

  // --- delta propagation (§3.4 "propagate the changes periodically") ----
  //
  // Instead of re-shipping full snapshots after every update, the central
  // server can ship an op log. Replay is possible on a signer-less edge
  // replica because (a) unsigned digests are public — the edge recomputes
  // them itself — and (b) the structural algorithms are deterministic, so
  // the central server's signatures, recorded in ResignNode order, splice
  // back in exactly.

  /// The per-tuple signature material of formula (1)/(2), computed and
  /// signed by the central server and shipped inside insert ops.
  struct SignedEntryMaterial {
    Signature tuple_sig;
    std::vector<Signature> attr_sigs;
  };

  /// Signs the attribute and tuple digests of `tuple` (central only).
  /// Deterministic signature schemes (AES-based SimSigner, PKCS#1 v1.5
  /// RSA) return the same bytes the subsequent Insert stores.
  Result<SignedEntryMaterial> MakeEntryMaterial(const Tuple& tuple);

  /// Directs a copy of every signature produced by node re-signing into
  /// `log` (in deterministic order); pass nullptr to stop recording.
  void set_signature_log(std::vector<Signature>* log) {
    signature_log_ = log;
  }

  /// Edge-side replay of one insert: applies the identical structural
  /// algorithm, recomputes unsigned digests locally, and consumes node
  /// signatures from `sig_feed` in the order the central server recorded
  /// them. Fails with kCorruption if the feed is too short or not fully
  /// consumed.
  Status ReplayInsert(const Tuple& tuple, const SignedEntryMaterial& material,
                      std::deque<Signature>* sig_feed);

  /// Edge-side replay of one range delete.
  Status ReplayDeleteRange(int64_t lo, int64_t hi,
                           std::deque<Signature>* sig_feed);

 private:
  struct LeafEntry;
  struct NodeContent;
  struct Leaf;      // leaf content snapshot
  struct Internal;  // internal content snapshot
  struct Node;      // versioned shell: word + content pointer
  struct ReadGuard;
  struct WriteCtx;
  struct FetchMemo;

  struct SplitResult {
    int64_t separator;
    Node* right = nullptr;
  };
  struct InsertOutcome {
    std::optional<SplitResult> split;
  };

  // --- writer machinery (exclusive writer_mu_ held) ---
  void BeginWrite();
  /// Publishes every dirty snapshot, swaps the root if requested, bumps
  /// the tree version *before* releasing the per-node words (readers
  /// label answers by loading the version before validating, so the
  /// bump-then-unlock order makes labels exact), and retires replaced
  /// snapshots / unlinked shells through the epoch reclaimer.
  void CommitWrite(bool bump_version);
  /// Drops every dirty clone unpublished and releases the words without
  /// a bump: a failed write op leaves the tree exactly as it was.
  void AbortWrite();
  Leaf* MutableLeaf(Node* n);
  Internal* MutableInternal(Node* n);
  Node* NewLeafNode();
  Node* NewInternalNode();
  /// Marks a node unlinked: it stays locked forever (stray readers abort
  /// immediately) and shell + snapshot are retired at commit.
  void RemoveNode(Node* n);
  /// Writer-side read: the dirty clone if this op already touched the
  /// node, the published snapshot otherwise.
  const NodeContent* WriterRead(const Node* n) const;
  void LockWord(Node* n);

  /// Published-snapshot read for cold paths (serialization, audits,
  /// introspection) that run under at least a shared writer_mu_.
  static const NodeContent* ColdRead(const Node* n);

  // --- digest helpers (central server side; operate on dirty clones) ---
  Status ResignNode(NodeContent* content);
  Status RecomputeLeafDigest(Leaf* leaf);
  Status RecomputeInternalDigest(Internal* in);
  /// signer_->Sign plus the sign_calls_ tick — every signature this tree
  /// produces goes through here so the counter is exact.
  Result<Signature> SignCounted(const Digest& d);
  /// Re-signs the post-op root's binding when a placement is installed
  /// and this write changed the root digest (or swapped the root). Called
  /// between the op body and CommitWrite; consumes the replay feed /
  /// appends to the signature log exactly like ResignNode, so edge replay
  /// stays deterministic.
  Status RefreshBindingForCommit();
  /// CloneRange's recursive deep copy into `dst` (fresh shell ids,
  /// binding fields cleared).
  Node* CloneSubtree(const Node* src, VBTree* dst) const;

  // --- build helpers ---
  Result<LeafEntry> MakeLeafEntry(const Tuple& tuple);

  Result<InsertOutcome> InsertRec(Node* node, LeafEntry entry);
  Result<bool> DeleteRec(Node* node, int64_t lo, int64_t hi, size_t* removed);

  /// Shared body of Insert and ReplayInsert (writer lock + recursion +
  /// root split + size accounting).
  Status InsertEntry(LeafEntry entry);
  /// Shared body of DeleteRange and ReplayDeleteRange.
  Result<size_t> DeleteRangeLocked(int64_t lo, int64_t hi);

  // --- query helpers (latch-free; record into the ReadGuard) ---
  /// Static validation of one batch slot; `q` must already be
  /// projection-normalized.
  Status ValidateSelect(const SelectQuery& q) const;
  /// One optimistic traversal attempt. A null return from the guard's
  /// Read (locked node observed) aborts the attempt silently — the
  /// caller restarts; a non-OK status is only trusted if the guard
  /// validates afterwards.
  Status ExecuteSelectAttempt(const SelectQuery& q, const TupleFetcher& fetch,
                              ReadGuard* g, QueryOutput* out) const;
  /// Restart loop around ExecuteSelectAttempt: re-reads the root each
  /// attempt, validates root pointer + read set against the loaded
  /// version label, yields between repeated restarts, and escalates to
  /// a shared writer_mu_ acquisition after kMaxOptimisticAttempts.
  /// `memo` serves fetches and commits an attempt's staged rows once it
  /// validates; `keep` receives the validated read set.
  Status RunSelectWithRestarts(const SelectQuery& q, const TupleFetcher& fetch,
                               bool under_fallback, QueryOutput* out,
                               ReadGuard* keep, uint64_t* restarts,
                               uint64_t* latch_wait_us, FetchMemo* memo) const;
  bool ConsumeInjectedRestart() const;
  /// Descends to the LCA of the range's two path ends.
  const Node* FindEnvelopeTop(const KeyRange& range, ReadGuard* g,
                              Signature* top_sig) const;
  Status BuildVONode(const Node* node, int depth, const SelectQuery& q,
                     const std::vector<size_t>& filtered_cols,
                     const TupleFetcher& fetch, ReadGuard* g, QueryOutput* out,
                     VONode* vo_node) const;

  // --- cold traversals (shared writer_mu_ held by caller) ---
  Status ResignRec(Node* node, const TupleFetcher& fetch);
  Status CheckDigestRec(const Node* node) const;
  Status CheckStructureRec(const Node* node, std::optional<int64_t> lo,
                           std::optional<int64_t> hi, int depth,
                           int* leaf_depth) const;
  void SerializeNode(const Node* node, ByteWriter* w) const;
  static Result<Node*> DeserializeNode(ByteReader* r, const Schema& schema,
                                       int depth, uint64_t* max_id);

  uint64_t NextNodeId() { return next_node_id_++; }

  static void DeleteSubtree(Node* node);

  DigestSchema ds_;
  VBTreeOptions opts_;
  Signer* signer_;  // null on edge replicas
  CryptoCounters* counters_ = nullptr;  // mirror of ds_'s sink (for rebinds)
  /// Shard placement (lineage shards). Set pre-publication (BindPlacement,
  /// Deserialize) or cleared under exclusive writer_mu_ (ResignAll with
  /// rename); atomic so latch-free readers can test it without racing the
  /// clear. The pointee is immutable; replaced values are retired through
  /// the epoch reclaimer.
  std::atomic<const ShardPlacement*> placement_{nullptr};
  /// Total signer invocations (see sign_calls()).
  mutable std::atomic<uint64_t> sign_calls_{0};
  /// Writers (inserts, deletes, replay, resign, bulk load) serialize
  /// here exclusively; pessimistic fallback reads and cold
  /// serialization/introspection paths take it shared. The optimistic
  /// hot read path never touches it.
  mutable std::shared_mutex writer_mu_;
  /// Shadows opts_.key_version for latch-free readers (see key_version()).
  std::atomic<uint32_t> key_version_{1};
  std::atomic<Node*> root_{nullptr};
  std::atomic<uint64_t> size_{0};
  std::atomic<uint64_t> version_{0};
  uint64_t next_node_id_ = 1;  // writer-only
  /// Retired shells/snapshots wait here until no reader can hold them.
  mutable olc::EpochReclaimer reclaimer_;
  /// Pending test-injected forced restarts (see InjectRestartsForTest).
  mutable std::atomic<int64_t> inject_restarts_{0};
  /// Test-only interleaving hook (see SetBatchLabelHookForTest).
  std::function<void(int, bool)> batch_label_hook_;
  /// Live only during one write op (under exclusive writer_mu_).
  std::unique_ptr<WriteCtx> wctx_;
  /// Central side: copies of signatures produced by ResignNode, in order.
  std::vector<Signature>* signature_log_ = nullptr;
  /// Edge side: feed of signatures consumed during replay.
  std::deque<Signature>* replay_feed_ = nullptr;
};

}  // namespace vbtree

#endif  // VBTREE_VBTREE_VB_TREE_H_
