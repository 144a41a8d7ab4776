#include "vbtree/vb_tree.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.h"

namespace vbtree {

namespace {
constexpr uint32_t kTreeMagic = 0x31544256;  // "VBT1"

/// Optimistic attempts before a reader escalates to the pessimistic
/// fallback (a brief shared acquisition of writer_mu_, which blocks
/// writers out and makes the next attempt validate by construction).
constexpr int kMaxOptimisticAttempts = 8;
/// From this attempt on, yield between restarts so the reader stops
/// spinning against an in-flight writer on oversubscribed cores.
constexpr int kYieldAfterAttempts = 2;
/// Batch label-convergence passes before the whole batch falls back.
constexpr int kMaxLabelPasses = 3;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

struct VBTree::LeafEntry {
  /// The primary key, which is also the row's address in its RowStore.
  int64_t key = 0;
  /// Unsigned tuple digest t_j (formula (2)); cached so node digests can
  /// be recomputed without re-reading tuples.
  Digest tuple_digest;
  /// s(t_j), stored with the tuple pointer — the key (formula (2),
  /// Fig. 3b).
  Signature tuple_sig;
  /// s(a_j1) ... s(a_jm): signed attribute digests (formula (1)); the
  /// D_P source for projections.
  std::vector<Signature> attr_sigs;
};

/// Immutable-once-published node payload. Writers never mutate a
/// published snapshot: they clone, edit the clone, and publish it with a
/// version-word bump (see common/olc.h) — so a latch-free reader holding
/// any snapshot pointer sees internally consistent, merely possibly
/// outdated, data and relies on word validation to reject it.
struct VBTree::NodeContent {
  /// Unsigned node digest D_N (formula (3)).
  Digest digest;
  /// s(D_N); conceptually stored with the child pointer in the parent
  /// (Fig. 3c) — kept with the node itself, which is equivalent and
  /// avoids duplication. The root's signature doubles as the tree
  /// metadata signature.
  Signature sig;
  /// Routing generation: bumped only when the snapshot's key/child layout
  /// changes (split, merge, entry add/remove) — NOT when an insert
  /// elsewhere merely ripples a new digest/signature through this node.
  /// Pure routing reads (the descent above the envelope top) validate
  /// against this instead of the node word, so churn outside a query's
  /// envelope cannot invalidate the query (see DESIGN.md §8.2).
  uint64_t struct_version = 0;
  /// Shard binding signature — meaningful only on the root snapshot of a
  /// tree with a placement (lineage shards): s(ShardBindingDigest(db,
  /// verify_name, lo, hi, digest)). Riding the root snapshot keeps it
  /// atomic with the digest it covers under latch-free reads; on every
  /// other node it stays empty.
  Signature binding;

  virtual ~NodeContent() = default;
};

struct VBTree::Leaf : VBTree::NodeContent {
  std::vector<LeafEntry> entries;
};

struct VBTree::Internal : VBTree::NodeContent {
  /// children.size() == keys.size() + 1; child i spans [keys[i-1], keys[i]).
  std::vector<int64_t> keys;
  /// Raw shell pointers: shells are owned by the tree as a whole and
  /// reclaimed epoch-based when unlinked.
  std::vector<Node*> children;

  size_t ChildIndex(int64_t key) const {
    return static_cast<size_t>(
        std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
  }

  /// Key span of child i as a half-open interval, for overlap tests
  /// against a query range.
  void ChildSpan(size_t i, std::optional<int64_t>* lo,
                 std::optional<int64_t>* hi) const {
    *lo = (i == 0) ? std::nullopt : std::optional(keys[i - 1]);
    *hi = (i == keys.size()) ? std::nullopt : std::optional(keys[i]);
  }
};

/// Versioned node shell: identity (id, leafness) is fixed for the shell's
/// lifetime; `word` is the OLC version word; `content` points at the
/// current published snapshot. The shell owns its current snapshot.
struct VBTree::Node {
  const uint64_t id;
  const bool is_leaf;
  std::atomic<uint64_t> word;
  std::atomic<NodeContent*> content;

  Node(uint64_t id_in, bool leaf, NodeContent* c)
      : id(id_in), is_leaf(leaf), word(olc::kInitialWord), content(c) {}
  ~Node() { delete content.load(std::memory_order_relaxed); }
};

/// One optimistic traversal's read set: every (node, word) observed. The
/// attempt is trustworthy only if Validate() passes afterwards — every
/// recorded word unchanged, no locked node encountered, and the root
/// pointer still the one the attempt started from (a root swap can
/// demote the old root without touching its word).
struct VBTree::ReadGuard {
  struct Rec {
    const Node* node;
    uint64_t word;
  };
  /// Routing-only dependency: the answer used this snapshot's keys and
  /// child pointers but nothing else, so it stays valid across
  /// digest-only republications of the node.
  struct StructRec {
    const Node* node;
    uint64_t struct_version;
  };
  std::vector<Rec> seen;
  std::vector<StructRec> routing;
  const std::atomic<Node*>* root_src = nullptr;
  Node* root_seen = nullptr;
  bool failed = false;
  /// The batch's fetch memo (ExecuteSelectBatch).
  FetchMemo* memo = nullptr;

  const NodeContent* Read(const Node* n) {
    uint64_t w = n->word.load(std::memory_order_acquire);
    if (olc::IsLocked(w)) {
      failed = true;
      return nullptr;
    }
    const NodeContent* c = n->content.load(std::memory_order_acquire);
    seen.push_back({n, w});
    return c;
  }

  /// Read for routing decisions only. Published snapshots are immutable,
  /// so this never needs to abort on a locked word — it records the
  /// snapshot's routing generation and Validate() rejects the attempt iff
  /// the node's key/child layout was republished since. A writer that
  /// merely pushed a fresh digest through the node (an insert in a
  /// sibling subtree) leaves the routing generation — and this read —
  /// intact. Every node above the envelope top also has its parent in
  /// `routing` (or is covered by the root re-check), so an unlink is
  /// always caught at the parent whose children changed.
  const NodeContent* ReadRouting(const Node* n) {
    const NodeContent* c = n->content.load(std::memory_order_acquire);
    routing.push_back({n, c->struct_version});
    return c;
  }

  bool Validate() const {
    if (failed) return false;
    if (root_src != nullptr &&
        root_src->load(std::memory_order_acquire) != root_seen) {
      return false;
    }
    for (const Rec& r : seen) {
      if (r.node->word.load(std::memory_order_acquire) != r.word) return false;
    }
    for (const StructRec& r : routing) {
      const NodeContent* c = r.node->content.load(std::memory_order_acquire);
      if (c->struct_version != r.struct_version) return false;
    }
    return true;
  }
};

/// ExecuteSelectBatch's batch-scoped row memo: queries with overlapping
/// envelopes share each row read (and decode) instead of re-fetching per
/// query. Fetches land in a per-attempt staging area and merge into the
/// committed memo only when the attempt's read set validates, so a
/// restarted (torn) read never leaks a row to its batch siblings. An
/// entry answers only a leaf entry with the same tuple digest: rows are
/// addressed by key, and a key deleted and re-inserted while the batch
/// converges is a different row at the same address.
struct VBTree::FetchMemo {
  struct Row {
    Digest digest;
    Tuple tuple;
  };
  std::map<int64_t, Row> committed;
  std::map<int64_t, Row> staging;
  size_t fetches = 0;
  size_t hits = 0;

  Result<Tuple> Fetch(const LeafEntry& e, const TupleFetcher& fetch) {
    if (auto it = committed.find(e.key);
        it != committed.end() && it->second.digest == e.tuple_digest) {
      hits++;
      return it->second.tuple;
    }
    if (auto it = staging.find(e.key);
        it != staging.end() && it->second.digest == e.tuple_digest) {
      return it->second.tuple;
    }
    VBT_ASSIGN_OR_RETURN(Tuple t, fetch(e.key));
    fetches++;
    return staging.insert_or_assign(e.key, Row{e.tuple_digest, std::move(t)})
        .first->second.tuple;
  }

  void Commit() {
    for (auto& [key, row] : staging) {
      committed.insert_or_assign(key, std::move(row));
    }
    staging.clear();
  }
};

/// Book-keeping for one write operation (insert, delete, replay, resign,
/// bulk load), which runs under exclusive writer_mu_. Mutations accumulate
/// as unpublished clones and become visible atomically at CommitWrite.
struct VBTree::WriteCtx {
  /// Shell -> unpublished clone this op is editing (for created shells
  /// the "clone" is the shell's own initial content).
  std::unordered_map<Node*, NodeContent*> dirty;
  /// Every shell whose word this op locked (includes created shells,
  /// which are born locked).
  std::vector<Node*> locked;
  /// Shells born in this op (deleted outright on abort).
  std::vector<Node*> created;
  /// Shells unlinked by this op: left locked forever and retired.
  std::vector<Node*> removed;
  Node* new_root = nullptr;

  bool IsCreated(const Node* n) const {
    return std::find(created.begin(), created.end(), n) != created.end();
  }
  bool IsRemoved(const Node* n) const {
    return std::find(removed.begin(), removed.end(), n) != removed.end();
  }
};

// ---------------------------------------------------------------------------
// Writer machinery.
// ---------------------------------------------------------------------------

void VBTree::BeginWrite() {
  VBT_CHECK(wctx_ == nullptr);
  wctx_ = std::make_unique<WriteCtx>();
}

void VBTree::LockWord(Node* n) {
  uint64_t w = n->word.load(std::memory_order_relaxed);
  VBT_CHECK(!olc::IsLocked(w));
  n->word.store(w | olc::kLockedBit, std::memory_order_release);
  wctx_->locked.push_back(n);
}

const VBTree::NodeContent* VBTree::WriterRead(const Node* n) const {
  if (wctx_ != nullptr) {
    auto it = wctx_->dirty.find(const_cast<Node*>(n));
    if (it != wctx_->dirty.end()) return it->second;
  }
  return n->content.load(std::memory_order_relaxed);
}

const VBTree::NodeContent* VBTree::ColdRead(const Node* n) {
  return n->content.load(std::memory_order_acquire);
}

VBTree::Leaf* VBTree::MutableLeaf(Node* n) {
  auto it = wctx_->dirty.find(n);
  if (it != wctx_->dirty.end()) return static_cast<Leaf*>(it->second);
  LockWord(n);
  Leaf* clone =
      new Leaf(*static_cast<const Leaf*>(n->content.load(std::memory_order_relaxed)));
  wctx_->dirty.emplace(n, clone);
  return clone;
}

VBTree::Internal* VBTree::MutableInternal(Node* n) {
  auto it = wctx_->dirty.find(n);
  if (it != wctx_->dirty.end()) return static_cast<Internal*>(it->second);
  LockWord(n);
  Internal* clone = new Internal(
      *static_cast<const Internal*>(n->content.load(std::memory_order_relaxed)));
  wctx_->dirty.emplace(n, clone);
  return clone;
}

VBTree::Node* VBTree::NewLeafNode() {
  Leaf* c = new Leaf();
  Node* n = new Node(NextNodeId(), /*leaf=*/true, c);
  n->word.store(olc::kInitialWord | olc::kLockedBit, std::memory_order_relaxed);
  wctx_->dirty.emplace(n, c);
  wctx_->locked.push_back(n);
  wctx_->created.push_back(n);
  return n;
}

VBTree::Node* VBTree::NewInternalNode() {
  Internal* c = new Internal();
  Node* n = new Node(NextNodeId(), /*leaf=*/false, c);
  n->word.store(olc::kInitialWord | olc::kLockedBit, std::memory_order_relaxed);
  wctx_->dirty.emplace(n, c);
  wctx_->locked.push_back(n);
  wctx_->created.push_back(n);
  return n;
}

void VBTree::RemoveNode(Node* n) {
  if (!olc::IsLocked(n->word.load(std::memory_order_relaxed))) LockWord(n);
  wctx_->removed.push_back(n);
}

void VBTree::CommitWrite(bool bump_version) {
  WriteCtx& ctx = *wctx_;
  // 1. Publish dirty snapshots (nodes stay locked, so no reader trusts
  //    them yet); retire the replaced ones. Removed nodes publish
  //    nothing — their pending clones just die.
  for (auto& [n, clone] : ctx.dirty) {
    NodeContent* old = n->content.load(std::memory_order_relaxed);
    if (ctx.IsRemoved(n)) {
      if (clone != old) delete clone;
      continue;
    }
    if (clone != old) {
      // Classify the republication before it becomes visible: only a
      // routing change (key/child layout) advances the structural
      // generation. Internal nodes are republished on EVERY insert below
      // them (the digest ripples to the root), and keeping the routing
      // generation stable across those is what lets concurrent readers
      // with untouched envelopes validate instead of restarting.
      bool routing_changed = true;
      if (!n->is_leaf) {
        const auto* oi = static_cast<const Internal*>(old);
        const auto* ci = static_cast<const Internal*>(clone);
        routing_changed = oi->keys != ci->keys || oi->children != ci->children;
      }
      if (routing_changed) clone->struct_version = old->struct_version + 1;
      n->content.store(clone, std::memory_order_release);
      reclaimer_.Retire([old] { delete old; });
    }
  }
  // 2. Swap the root if this op grew/shrank the tree.
  if (ctx.new_root != nullptr) {
    root_.store(ctx.new_root, std::memory_order_release);
  }
  // 3. Bump the tree version BEFORE releasing any word: a reader that
  //    validates its read set loads the version first, so this order
  //    guarantees the label is at least as new as any state the reader
  //    could have observed (labels are exact — see DESIGN.md §8).
  if (bump_version) {
    version_.store(version_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }
  // 4. Release every word with a version bump. Removed shells stay
  //    locked forever so stragglers abort instantly.
  for (Node* n : ctx.locked) {
    if (ctx.IsRemoved(n)) continue;
    uint64_t w = n->word.load(std::memory_order_relaxed);
    n->word.store(olc::BumpedUnlocked(w), std::memory_order_release);
  }
  // 5. Retire unlinked shells (their destructors free the snapshots they
  //    still own).
  for (Node* n : ctx.removed) {
    reclaimer_.Retire([n] { delete n; });
  }
  wctx_.reset();
  reclaimer_.Collect();
}

void VBTree::AbortWrite() {
  WriteCtx& ctx = *wctx_;
  // Nothing was published: drop the clones, restore the original words
  // (no bump — the tree is bit-identical to before the op), delete
  // stillborn shells. Removal marks simply evaporate.
  for (auto& [n, clone] : ctx.dirty) {
    if (clone != n->content.load(std::memory_order_relaxed)) delete clone;
  }
  for (Node* n : ctx.locked) {
    if (ctx.IsCreated(n)) continue;
    uint64_t w = n->word.load(std::memory_order_relaxed);
    n->word.store(w & ~olc::kLockedBit, std::memory_order_release);
  }
  for (Node* n : ctx.created) delete n;
  wctx_.reset();
}

// ---------------------------------------------------------------------------
// Construction / destruction.
// ---------------------------------------------------------------------------

VBTree::VBTree(DigestSchema digest_schema, VBTreeOptions opts, Signer* signer)
    : ds_(std::move(digest_schema)), opts_(opts), signer_(signer) {
  VBT_CHECK(opts_.config.max_internal >= 2 && opts_.config.max_leaf >= 1);
  key_version_.store(opts_.key_version, std::memory_order_relaxed);
  Leaf* c = new Leaf();
  c->digest = ds_.ghash().Identity();
  if (signer_ != nullptr) {
    auto sig = SignCounted(c->digest);
    if (sig.ok()) c->sig = sig.MoveValueUnsafe();
  }
  root_.store(new Node(NextNodeId(), /*leaf=*/true, c),
              std::memory_order_relaxed);
}

VBTree::~VBTree() {
  reclaimer_.DrainAll();
  DeleteSubtree(root_.load(std::memory_order_relaxed));
  delete placement_.load(std::memory_order_relaxed);
}

void VBTree::DeleteSubtree(Node* node) {
  if (node == nullptr) return;
  NodeContent* c = node->content.load(std::memory_order_relaxed);
  if (!node->is_leaf) {
    for (Node* child : static_cast<Internal*>(c)->children) {
      DeleteSubtree(child);
    }
  }
  delete node;  // shell destructor frees its current snapshot
}

// ---------------------------------------------------------------------------
// Digest maintenance (central server).
// ---------------------------------------------------------------------------

Result<Signature> VBTree::SignCounted(const Digest& d) {
  sign_calls_.fetch_add(1, std::memory_order_relaxed);
  return signer_->Sign(d);
}

Status VBTree::ResignNode(NodeContent* content) {
  if (replay_feed_ != nullptr) {
    // Delta replay: splice in the signature the central server produced
    // for this (structurally identical) re-signing step.
    if (replay_feed_->empty()) {
      return Status::Corruption("update-delta signature feed exhausted");
    }
    content->sig = std::move(replay_feed_->front());
    replay_feed_->pop_front();
    return Status::OK();
  }
  if (signer_ == nullptr) {
    return Status::InvalidArgument(
        "tree replica has no signing key (updates must go to the central "
        "server, §3.4)");
  }
  VBT_ASSIGN_OR_RETURN(content->sig, SignCounted(content->digest));
  if (signature_log_ != nullptr) signature_log_->push_back(content->sig);
  return Status::OK();
}

Status VBTree::RefreshBindingForCommit() {
  const ShardPlacement* p = placement_.load(std::memory_order_relaxed);
  if (p == nullptr) return Status::OK();
  Node* root = wctx_->new_root != nullptr
                   ? wctx_->new_root
                   : root_.load(std::memory_order_relaxed);
  NodeContent* c;
  auto it = wctx_->dirty.find(root);
  if (it != wctx_->dirty.end()) {
    c = it->second;
  } else if (wctx_->new_root != nullptr) {
    // Root collapse promoted an untouched child (all deleted keys lived
    // in removed siblings): its digest IS the new root digest, so it must
    // carry the binding. Cloning it republishes with the routing
    // generation intact. This branch is deterministic — edge replay takes
    // it in exactly the same structural state.
    c = root->is_leaf ? static_cast<NodeContent*>(MutableLeaf(root))
                      : static_cast<NodeContent*>(MutableInternal(root));
  } else {
    return Status::OK();  // root digest unchanged; old binding still valid
  }
  Digest bd = ShardBindingDigest(ds_.db_name(), p->verify_name, p->lo, p->hi,
                                 c->digest);
  if (replay_feed_ != nullptr) {
    if (replay_feed_->empty()) {
      return Status::Corruption("update-delta signature feed exhausted");
    }
    c->binding = std::move(replay_feed_->front());
    replay_feed_->pop_front();
    return Status::OK();
  }
  if (signer_ == nullptr) {
    return Status::InvalidArgument(
        "tree replica has no signing key (updates must go to the central "
        "server, §3.4)");
  }
  VBT_ASSIGN_OR_RETURN(c->binding, SignCounted(bd));
  if (signature_log_ != nullptr) signature_log_->push_back(c->binding);
  return Status::OK();
}

Status VBTree::RecomputeLeafDigest(Leaf* leaf) {
  std::vector<Digest> ds;
  ds.reserve(leaf->entries.size());
  for (const LeafEntry& e : leaf->entries) ds.push_back(e.tuple_digest);
  leaf->digest = ds_.CombineDigests(ds);
  return ResignNode(leaf);
}

Status VBTree::RecomputeInternalDigest(Internal* in) {
  std::vector<Digest> ds;
  ds.reserve(in->children.size());
  for (const Node* c : in->children) ds.push_back(WriterRead(c)->digest);
  in->digest = ds_.CombineDigests(ds);
  return ResignNode(in);
}

Result<VBTree::LeafEntry> VBTree::MakeLeafEntry(const Tuple& tuple) {
  if (signer_ == nullptr) {
    return Status::InvalidArgument("cannot create signed entries without key");
  }
  if (tuple.num_values() != ds_.schema().num_columns()) {
    return Status::InvalidArgument("tuple arity does not match schema");
  }
  LeafEntry e;
  e.key = tuple.key();
  std::vector<Digest> attrs = ds_.AttributeDigests(tuple);
  e.attr_sigs.reserve(attrs.size());
  for (const Digest& a : attrs) {
    VBT_ASSIGN_OR_RETURN(Signature s, SignCounted(a));
    e.attr_sigs.push_back(std::move(s));
  }
  e.tuple_digest = ds_.CombineDigests(attrs);
  VBT_ASSIGN_OR_RETURN(e.tuple_sig, SignCounted(e.tuple_digest));
  return e;
}

// ---------------------------------------------------------------------------
// Bulk load.
// ---------------------------------------------------------------------------

Status VBTree::BulkLoad(std::span<const Tuple> rows) {
  std::unique_lock latch(writer_mu_);
  if (size_.load(std::memory_order_relaxed) != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1].key() >= rows[i].key()) {
      return Status::InvalidArgument(
          "BulkLoad input must be sorted by strictly increasing key");
    }
  }

  BeginWrite();
  auto fail = [&](Status s) {
    AbortWrite();
    return s;
  };

  // Build packed leaves.
  std::vector<Node*> level;
  const size_t per_leaf = static_cast<size_t>(opts_.config.max_leaf);
  for (size_t i = 0; i < rows.size();) {
    Node* leaf_node = NewLeafNode();
    Leaf* leaf = MutableLeaf(leaf_node);
    size_t n = std::min(per_leaf, rows.size() - i);
    leaf->entries.reserve(n);
    for (size_t j = 0; j < n; ++j, ++i) {
      auto e_or = MakeLeafEntry(rows[i]);
      if (!e_or.ok()) return fail(e_or.status());
      leaf->entries.push_back(e_or.MoveValueUnsafe());
    }
    Status s = RecomputeLeafDigest(leaf);
    if (!s.ok()) return fail(s);
    level.push_back(leaf_node);
  }
  if (level.empty()) {
    Node* leaf_node = NewLeafNode();
    Leaf* leaf = MutableLeaf(leaf_node);
    leaf->digest = ds_.ghash().Identity();
    Status s = ResignNode(leaf);
    if (!s.ok()) return fail(s);
    level.push_back(leaf_node);
  }

  // Build packed internal levels bottom-up.
  const size_t per_node = static_cast<size_t>(opts_.config.max_internal);
  while (level.size() > 1) {
    std::vector<Node*> upper;
    for (size_t i = 0; i < level.size();) {
      Node* in_node = NewInternalNode();
      Internal* in = MutableInternal(in_node);
      size_t n = std::min(per_node, level.size() - i);
      // Avoid leaving a trailing group of one child.
      if (level.size() - i - n == 1) n--;
      for (size_t j = 0; j < n; ++j, ++i) {
        if (j > 0) {
          // Separator = smallest key in subtree of child j.
          const Node* c = level[i];
          while (!c->is_leaf) {
            c = static_cast<const Internal*>(WriterRead(c))->children[0];
          }
          in->keys.push_back(
              static_cast<const Leaf*>(WriterRead(c))->entries[0].key);
        }
        in->children.push_back(level[i]);
      }
      Status s = RecomputeInternalDigest(in);
      if (!s.ok()) return fail(s);
      upper.push_back(in_node);
    }
    level = std::move(upper);
  }

  RemoveNode(root_.load(std::memory_order_relaxed));  // the ctor's empty leaf
  wctx_->new_root = level[0];
  size_.store(rows.size(), std::memory_order_relaxed);
  {
    Status s = RefreshBindingForCommit();
    if (!s.ok()) return fail(s);
  }
  // No version bump: bulk load defines version 0, exactly as before.
  CommitWrite(/*bump_version=*/false);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Insert (§3.4).
// ---------------------------------------------------------------------------

Result<VBTree::InsertOutcome> VBTree::InsertRec(Node* node, LeafEntry entry) {
  if (node->is_leaf) {
    Leaf* leaf = MutableLeaf(node);
    auto it = std::lower_bound(
        leaf->entries.begin(), leaf->entries.end(), entry.key,
        [](const LeafEntry& e, int64_t k) { return e.key < k; });
    if (it != leaf->entries.end() && it->key == entry.key) {
      return Status::AlreadyExists("duplicate key");
    }
    const Digest tuple_digest = entry.tuple_digest;
    leaf->entries.insert(it, std::move(entry));
    if (leaf->entries.size() <= static_cast<size_t>(opts_.config.max_leaf)) {
      // Incremental fold: D ← D^{t_j} mod n (§3.4 Insert). This is valid
      // at the leaf because the leaf digest is G^(∏ tuple digests).
      leaf->digest = ds_.ghash().Extend(leaf->digest, tuple_digest);
      VBT_RETURN_NOT_OK(ResignNode(leaf));
      return InsertOutcome{};
    }
    // Split; both halves need full recomputation.
    Node* right_node = NewLeafNode();
    Leaf* right = MutableLeaf(right_node);
    size_t mid = leaf->entries.size() / 2;
    right->entries.assign(std::make_move_iterator(leaf->entries.begin() + mid),
                          std::make_move_iterator(leaf->entries.end()));
    leaf->entries.resize(mid);
    VBT_RETURN_NOT_OK(RecomputeLeafDigest(leaf));
    VBT_RETURN_NOT_OK(RecomputeLeafDigest(right));
    InsertOutcome out;
    out.split = SplitResult{right->entries.front().key, right_node};
    return out;
  }

  const auto* in_read = static_cast<const Internal*>(WriterRead(node));
  size_t ci = in_read->ChildIndex(entry.key);
  Node* child = in_read->children[ci];
  VBT_ASSIGN_OR_RETURN(InsertOutcome child_out,
                       InsertRec(child, std::move(entry)));

  // The child's digest changed, so this node's digest — defined as
  // g(D_c1, ..., D_cp) over *child digests* — is recombined and
  // re-signed.
  //
  // Faithfulness note (see DESIGN.md §1): §3.4 suggests updating every
  // node on the path incrementally as D ← D^{d_T}. That identity only
  // holds if node digests were flat products over all tuple digests
  // beneath, which is incompatible with the paper's own VO construction
  // (opaque filtered branches enter verification as child *digests*,
  // formula (4)). With the nested definition an internal node redoes an
  // O(fan-out) combination.
  Internal* in = MutableInternal(node);
  if (child_out.split.has_value()) {
    in->keys.insert(in->keys.begin() + ci, child_out.split->separator);
    in->children.insert(in->children.begin() + ci + 1, child_out.split->right);
    if (in->children.size() > static_cast<size_t>(opts_.config.max_internal)) {
      Node* right_node = NewInternalNode();
      Internal* right = MutableInternal(right_node);
      size_t mid = in->keys.size() / 2;
      int64_t up = in->keys[mid];
      right->keys.assign(in->keys.begin() + mid + 1, in->keys.end());
      for (size_t i = mid + 1; i < in->children.size(); ++i) {
        right->children.push_back(in->children[i]);
      }
      in->keys.resize(mid);
      in->children.resize(mid + 1);
      VBT_RETURN_NOT_OK(RecomputeInternalDigest(in));
      VBT_RETURN_NOT_OK(RecomputeInternalDigest(right));
      InsertOutcome out;
      out.split = SplitResult{up, right_node};
      return out;
    }
  }
  VBT_RETURN_NOT_OK(RecomputeInternalDigest(in));
  return InsertOutcome{};
}

Status VBTree::InsertEntry(LeafEntry entry) {
  std::unique_lock latch(writer_mu_);
  BeginWrite();
  auto out_or =
      InsertRec(root_.load(std::memory_order_relaxed), std::move(entry));
  if (!out_or.ok()) {
    AbortWrite();
    return out_or.status();
  }
  if (out_or->split.has_value()) {
    Node* new_root_node = NewInternalNode();
    Internal* new_root = MutableInternal(new_root_node);
    new_root->keys.push_back(out_or->split->separator);
    new_root->children.push_back(root_.load(std::memory_order_relaxed));
    new_root->children.push_back(out_or->split->right);
    Status s = RecomputeInternalDigest(new_root);
    if (!s.ok()) {
      AbortWrite();
      return s;
    }
    wctx_->new_root = new_root_node;
  }
  {
    Status s = RefreshBindingForCommit();
    if (!s.ok()) {
      AbortWrite();
      return s;
    }
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  CommitWrite(/*bump_version=*/true);
  return Status::OK();
}

Status VBTree::Insert(const Tuple& tuple) {
  if (signer_ == nullptr) {
    return Status::InvalidArgument(
        "edge replicas cannot process updates; route to the central server");
  }
  // Digest + signature computation happens outside the writer lock.
  VBT_ASSIGN_OR_RETURN(LeafEntry entry, MakeLeafEntry(tuple));
  return InsertEntry(std::move(entry));
}

Result<VBTree::SignedEntryMaterial> VBTree::MakeEntryMaterial(
    const Tuple& tuple) {
  VBT_ASSIGN_OR_RETURN(LeafEntry entry, MakeLeafEntry(tuple));
  SignedEntryMaterial m;
  m.tuple_sig = std::move(entry.tuple_sig);
  m.attr_sigs = std::move(entry.attr_sigs);
  return m;
}

Status VBTree::ReplayInsert(const Tuple& tuple,
                            const SignedEntryMaterial& material,
                            std::deque<Signature>* sig_feed) {
  if (tuple.num_values() != ds_.schema().num_columns() ||
      material.attr_sigs.size() != ds_.schema().num_columns()) {
    return Status::InvalidArgument("replay material does not match schema");
  }
  LeafEntry entry;
  entry.key = tuple.key();
  // Unsigned digests are public: the replica recomputes them itself.
  std::vector<Digest> attrs = ds_.AttributeDigests(tuple);
  entry.tuple_digest = ds_.CombineDigests(attrs);
  entry.tuple_sig = material.tuple_sig;
  entry.attr_sigs = material.attr_sigs;

  replay_feed_ = sig_feed;
  Status s = InsertEntry(std::move(entry));
  replay_feed_ = nullptr;
  return s;
}

Status VBTree::ReplayDeleteRange(int64_t lo, int64_t hi,
                                 std::deque<Signature>* sig_feed) {
  replay_feed_ = sig_feed;
  Status s = DeleteRangeLocked(lo, hi).status();
  replay_feed_ = nullptr;
  return s;
}

// ---------------------------------------------------------------------------
// Delete (§3.4).
// ---------------------------------------------------------------------------

Result<bool> VBTree::DeleteRec(Node* node, int64_t lo, int64_t hi,
                               size_t* removed) {
  if (node->is_leaf) {
    // Peek before cloning: untouched leaves stay clean (no spurious
    // version bumps for readers to trip over).
    const auto* cur = static_cast<const Leaf*>(WriterRead(node));
    bool any = std::any_of(
        cur->entries.begin(), cur->entries.end(),
        [&](const LeafEntry& e) { return e.key >= lo && e.key <= hi; });
    if (!any) return false;
    Leaf* leaf = MutableLeaf(node);
    size_t before = leaf->entries.size();
    leaf->entries.erase(
        std::remove_if(leaf->entries.begin(), leaf->entries.end(),
                       [&](const LeafEntry& e) {
                         return e.key >= lo && e.key <= hi;
                       }),
        leaf->entries.end());
    *removed += before - leaf->entries.size();
    if (!leaf->entries.empty()) {
      VBT_RETURN_NOT_OK(RecomputeLeafDigest(leaf));
    }
    return true;
  }

  const auto* in_read = static_cast<const Internal*>(WriterRead(node));
  bool changed = false;
  for (size_t i = 0; i < in_read->children.size();) {
    std::optional<int64_t> span_lo, span_hi;
    in_read->ChildSpan(i, &span_lo, &span_hi);
    bool overlap = (!span_lo.has_value() || *span_lo <= hi) &&
                   (!span_hi.has_value() || *span_hi > lo);
    if (!overlap) {
      i++;
      continue;
    }
    Node* child = in_read->children[i];
    VBT_ASSIGN_OR_RETURN(bool child_changed, DeleteRec(child, lo, hi, removed));
    changed = changed || child_changed;

    // Merge-on-empty policy (§4.4, citing Johnson & Shasha): free a child
    // only once it holds nothing.
    const NodeContent* cc = WriterRead(child);
    bool child_empty =
        child->is_leaf
            ? static_cast<const Leaf*>(cc)->entries.empty()
            : static_cast<const Internal*>(cc)->children.empty();
    if (child_empty) {
      Internal* in = MutableInternal(node);
      in_read = in;  // keep iterating over the clone
      in->children.erase(in->children.begin() + i);
      if (!in->keys.empty()) {
        in->keys.erase(in->keys.begin() + (i == 0 ? 0 : i - 1));
      }
      RemoveNode(child);
      changed = true;
      continue;  // re-examine index i (next child shifted down)
    }
    i++;
  }
  if (changed && !in_read->children.empty()) {
    VBT_RETURN_NOT_OK(RecomputeInternalDigest(MutableInternal(node)));
  }
  return changed;
}

Result<size_t> VBTree::DeleteRange(int64_t lo, int64_t hi) {
  if (signer_ == nullptr) {
    return Status::InvalidArgument(
        "edge replicas cannot process updates; route to the central server");
  }
  return DeleteRangeLocked(lo, hi);
}

Result<size_t> VBTree::DeleteRangeLocked(int64_t lo, int64_t hi) {
  if (lo > hi) return static_cast<size_t>(0);
  std::unique_lock latch(writer_mu_);
  BeginWrite();
  auto fail = [&](Status s) {
    AbortWrite();
    return s;
  };
  size_t removed = 0;
  {
    Status s =
        DeleteRec(root_.load(std::memory_order_relaxed), lo, hi, &removed)
            .status();
    if (!s.ok()) return fail(s);
  }

  // Collapse trivial roots.
  Node* root = root_.load(std::memory_order_relaxed);
  while (!root->is_leaf) {
    const auto* in = static_cast<const Internal*>(WriterRead(root));
    if (in->children.empty()) {
      Node* leaf_node = NewLeafNode();
      Leaf* leaf = MutableLeaf(leaf_node);
      leaf->digest = ds_.ghash().Identity();
      Status s = ResignNode(leaf);
      if (!s.ok()) return fail(s);
      RemoveNode(root);
      root = leaf_node;
      break;
    }
    if (in->children.size() > 1) break;
    Node* child = in->children[0];
    RemoveNode(root);
    root = child;
  }
  if (removed > 0 && root->is_leaf) {
    if (static_cast<const Leaf*>(WriterRead(root))->entries.empty()) {
      Leaf* leaf = MutableLeaf(root);
      leaf->digest = ds_.ghash().Identity();
      Status s = ResignNode(leaf);
      if (!s.ok()) return fail(s);
    }
  }
  if (root != root_.load(std::memory_order_relaxed)) wctx_->new_root = root;
  {
    Status s = RefreshBindingForCommit();
    if (!s.ok()) return fail(s);
  }
  size_.fetch_sub(removed, std::memory_order_relaxed);
  CommitWrite(/*bump_version=*/true);
  return removed;
}

// ---------------------------------------------------------------------------
// Query + VO construction (§3.3) — latch-free with optimistic validation.
// ---------------------------------------------------------------------------

const VBTree::Node* VBTree::FindEnvelopeTop(const KeyRange& range, ReadGuard* g,
                                            Signature* top_sig) const {
  const Node* node = g->root_seen;
  if (placement_.load(std::memory_order_acquire) != nullptr) {
    // Lineage shard: the only signature that proves THIS shard's identity
    // (name + range) is the root's binding, so every VO anchors at the
    // root — the descent-to-LCA shortcut would anchor at a node signature
    // a sibling's tree could replay. The root joins the exact read set
    // (its binding and digest must come from one word era), which does
    // cost lineage shards the envelope-top read independence: any
    // concurrent commit restarts in-flight reads here. That is the
    // deliberate price of O(height) splits; RotateKey's re-sign clears
    // the lineage and restores envelope-top anchoring (DESIGN.md §10).
    const NodeContent* c = g->Read(node);
    if (c == nullptr) return nullptr;
    *top_sig = c->binding;
    return node;
  }
  // Descend on routing-only reads: the nodes above the envelope top
  // contribute nothing to the answer but child choice, so they must not
  // tie the attempt to their version words — every insert anywhere in
  // the tree republishes the root (and its path) with a fresh digest,
  // and word-validating the descent would make ANY churn invalidate ALL
  // concurrent reads. Only a key/child layout change (validated through
  // the snapshot's routing generation) can re-route this query.
  const NodeContent* c = g->ReadRouting(node);
  while (!node->is_leaf) {
    const auto* in = static_cast<const Internal*>(c);
    size_t ci_lo = in->ChildIndex(range.lo);
    size_t ci_hi = in->ChildIndex(range.hi);
    if (ci_lo != ci_hi) break;  // paths diverge: this is the LCA
    node = in->children[ci_lo];
    c = g->ReadRouting(node);
  }
  // The top itself joins the exact read set: its signature is the VO's
  // signed anchor and BuildVONode re-reads it, so both reads must come
  // from the same word era for the anchor to match the body.
  c = g->Read(node);
  if (c == nullptr) return nullptr;
  *top_sig = c->sig;
  return node;
}

Status VBTree::BuildVONode(const Node* node, int depth, const SelectQuery& q,
                           const std::vector<size_t>& filtered_cols,
                           const TupleFetcher& fetch, ReadGuard* g,
                           QueryOutput* out, VONode* vo_node) const {
  const NodeContent* c = g->Read(node);
  if (c == nullptr) return Status::OK();  // locked node: attempt restarts
  out->stats.nodes_visited++;
  if (node->is_leaf) {
    vo_node->is_leaf = true;
    if (out->stats.subtree_height == 0) {
      // Leaf depth relative to the envelope top, +1 — identical to the
      // old tree_height − depth_of_top on a consistent snapshot.
      out->stats.subtree_height = depth + 1;
    }
    const auto* leaf = static_cast<const Leaf*>(c);
    for (const LeafEntry& e : leaf->entries) {
      if (!q.range.Contains(e.key)) {
        // Boundary tuple outside the selection: its signed digest joins
        // D_S (the Da/Db/Dc/Dd digests of Fig. 5).
        vo_node->filtered_tuple_sigs.push_back(e.tuple_sig);
        continue;
      }
      // A fetch failure is only trusted (reported as tampering) if the
      // read set validates afterwards; otherwise the attempt restarts —
      // a concurrent writer may simply have won the race to the store.
      VBT_ASSIGN_OR_RETURN(Tuple t, g->memo->Fetch(e, fetch));
      if (!q.MatchesConditions(t)) {
        // Non-key predicate gap inside the range (§3.3 Selection on
        // non-key attributes).
        vo_node->filtered_tuple_sigs.push_back(e.tuple_sig);
        continue;
      }
      ResultRow row;
      row.key = e.key;
      if (q.projection.empty()) {
        row.values = t.values();
      } else {
        row.values.reserve(q.projection.size());
        for (size_t col : q.projection) row.values.push_back(t.value(col));
        // D_P: signed digests of the projected-away attributes (Fig. 7).
        for (size_t col : filtered_cols) {
          out->vo.projected_attr_sigs.push_back(e.attr_sigs[col]);
        }
      }
      out->rows.push_back(std::move(row));
      vo_node->result_count++;
    }
    return Status::OK();
  }

  vo_node->is_leaf = false;
  const auto* in = static_cast<const Internal*>(c);
  vo_node->items.reserve(in->children.size());
  for (size_t i = 0; i < in->children.size(); ++i) {
    std::optional<int64_t> span_lo, span_hi;
    in->ChildSpan(i, &span_lo, &span_hi);
    bool overlap = (!span_lo.has_value() || *span_lo <= q.range.hi) &&
                   (!span_hi.has_value() || *span_hi > q.range.lo);
    VONode::Item item;
    if (overlap) {
      item.covered = std::make_unique<VONode>();
      VBT_RETURN_NOT_OK(BuildVONode(in->children[i], depth + 1, q,
                                    filtered_cols, fetch, g, out,
                                    item.covered.get()));
      if (g->failed) return Status::OK();
    } else {
      // Branch not overlapping the result: one signed digest suffices.
      // Reading the child snapshot records its word too — the signature
      // becomes part of the validated read set.
      const NodeContent* cc = g->Read(in->children[i]);
      if (cc == nullptr) return Status::OK();
      item.opaque = cc->sig;
    }
    vo_node->items.push_back(std::move(item));
  }
  return Status::OK();
}

Status VBTree::ValidateSelect(const SelectQuery& q) const {
  if (!q.projection.empty() && q.projection[0] != 0) {
    return Status::InvalidArgument("projection must retain the key column");
  }
  for (const ColumnCondition& c : q.conditions) {
    if (c.col_idx >= ds_.schema().num_columns()) {
      return Status::InvalidArgument("condition on nonexistent column");
    }
  }
  for (size_t c : q.projection) {
    if (c >= ds_.schema().num_columns()) {
      return Status::InvalidArgument("projection of nonexistent column");
    }
  }
  if (q.range.empty()) {
    return Status::InvalidArgument("empty key range");
  }
  return Status::OK();
}

Status VBTree::ExecuteSelectAttempt(const SelectQuery& q,
                                    const TupleFetcher& fetch, ReadGuard* g,
                                    QueryOutput* out) const {
  out->vo.key_version = key_version_.load(std::memory_order_acquire);
  std::vector<size_t> filtered_cols =
      q.FilteredColumns(ds_.schema().num_columns());
  out->vo.num_filtered_cols = static_cast<uint32_t>(filtered_cols.size());

  const Node* top = FindEnvelopeTop(q.range, g, &out->vo.signed_top);
  if (top == nullptr) return Status::OK();  // aborted on a locked node

  out->vo.skeleton = std::make_unique<VONode>();
  return BuildVONode(top, /*depth=*/0, q, filtered_cols, fetch, g, out,
                     out->vo.skeleton.get());
}

bool VBTree::ConsumeInjectedRestart() const {
  int64_t cur = inject_restarts_.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (inject_restarts_.compare_exchange_weak(cur, cur - 1,
                                               std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

Status VBTree::RunSelectWithRestarts(const SelectQuery& q,
                                     const TupleFetcher& fetch,
                                     bool under_fallback, QueryOutput* out,
                                     ReadGuard* keep, uint64_t* restarts,
                                     uint64_t* latch_wait_us,
                                     FetchMemo* memo) const {
  for (int attempt = 0; attempt < kMaxOptimisticAttempts; ++attempt) {
    if (!under_fallback && attempt >= kYieldAfterAttempts) {
      const auto t0 = std::chrono::steady_clock::now();
      std::this_thread::yield();
      *latch_wait_us += ElapsedUs(t0);
    }
    memo->staging.clear();
    ReadGuard g;
    g.root_src = &root_;
    g.root_seen = root_.load(std::memory_order_acquire);
    g.memo = memo;
    QueryOutput tmp;
    Status s = ExecuteSelectAttempt(q, fetch, &g, &tmp);
    if (!under_fallback && ConsumeInjectedRestart()) {
      ++*restarts;
      continue;
    }
    // Label BEFORE validating: if the words (and root pointer) are still
    // unchanged after this load, the answer is exactly the tree state at
    // `label` (writers bump the tree version before unlocking any word).
    const uint64_t label = version_.load(std::memory_order_acquire);
    if (!g.Validate()) {
      if (under_fallback) {
        // Impossible: we hold writer_mu_ shared, writers need exclusive.
        return Status::Corruption("OLC validation failed under fallback");
      }
      ++*restarts;
      continue;
    }
    tmp.read_version = label;
    if (s.ok()) memo->Commit();
    *out = std::move(tmp);
    *keep = std::move(g);
    return s;
  }
  // Pessimistic fallback: a shared hold of the writer mutex blocks
  // writers (they need it exclusive) while still admitting other
  // readers, so the next attempt validates by construction.
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_lock fallback(writer_mu_);
  *latch_wait_us += ElapsedUs(t0);
  return RunSelectWithRestarts(q, fetch, /*under_fallback=*/true, out, keep,
                               restarts, latch_wait_us, memo);
}

Result<QueryOutput> VBTree::ExecuteSelect(const SelectQuery& query,
                                          const TupleFetcher& fetch) const {
  VBT_ASSIGN_OR_RETURN(std::vector<QueryOutput> outs,
                       ExecuteSelectBatch({&query, 1}, fetch));
  VBT_RETURN_NOT_OK(outs[0].status);
  return std::move(outs[0]);
}

Result<std::vector<QueryOutput>> VBTree::ExecuteSelectBatch(
    std::span<const SelectQuery> queries, const TupleFetcher& fetch,
    VBBatchStats* batch_stats) const {
  std::vector<SelectQuery> qs(queries.begin(), queries.end());
  // Per-query validation outcomes; a failed slot is skipped below and
  // reported through outs[i].status, not by aborting its siblings.
  std::vector<Status> validation(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    qs[i].NormalizeProjection();
    validation[i] = ValidateSelect(qs[i]);
  }

  FetchMemo memo;

  // ONE epoch pin spans the whole batch — including every
  // label-convergence pass and the pessimistic fallback — because the
  // guards' Validate() calls below dereference node shells recorded
  // during earlier passes, and unpinning would let the reclaimer free a
  // shell a guard still points at. The cost is that snapshots retired
  // while the batch runs sit in the reclaimer's limbo list until the
  // batch unpins; that growth is bounded by the write rate over one
  // batch's latency and is observable via reclaimer_.limbo_size().
  olc::EpochReclaimer::Pin pin(&reclaimer_);
  uint64_t restarts = 0;
  uint64_t latch_wait = 0;
  const size_t n = qs.size();
  std::vector<QueryOutput> outs(n);
  std::vector<ReadGuard> guards(n);

  auto run_one = [&](size_t i, bool under_fallback) {
    QueryOutput out;
    Status s = RunSelectWithRestarts(qs[i], fetch, under_fallback, &out,
                                     &guards[i], &restarts, &latch_wait,
                                     &memo);
    out.status = s;
    if (!s.ok()) {
      // Partial VO state from a failed execution must not leak.
      out.rows.clear();
      out.vo = VerificationObject{};
    }
    outs[i] = std::move(out);
  };

  for (size_t i = 0; i < n; ++i) {
    if (!validation[i].ok()) {
      outs[i].status = validation[i];
      continue;
    }
    run_one(i, /*under_fallback=*/false);
  }

  // Converge the whole batch on ONE version label, replacing the old
  // batch-wide latch hold: queries whose read sets a writer has since
  // touched re-execute; everything still valid at `v_now` is relabeled
  // for free (an untouched envelope answers identically at the newer
  // version). After kMaxLabelPasses the stragglers finish under a brief
  // shared writer_mu_ hold, which bounds the loop.
  uint64_t v_now = 0;
  for (int pass = 0;; ++pass) {
    if (batch_label_hook_) batch_label_hook_(pass, /*pre_fallback_lock=*/false);
    v_now = version_.load(std::memory_order_acquire);
    std::vector<size_t> stale;
    for (size_t i = 0; i < n; ++i) {
      if (!validation[i].ok()) continue;
      if (!guards[i].Validate()) stale.push_back(i);
    }
    if (stale.empty()) break;
    if (pass >= kMaxLabelPasses) {
      if (batch_label_hook_) {
        batch_label_hook_(pass, /*pre_fallback_lock=*/true);
      }
      const auto t0 = std::chrono::steady_clock::now();
      std::shared_lock fb(writer_mu_);
      latch_wait += ElapsedUs(t0);
      // The scan above raced with writers: one committing between that
      // scan and this lock acquisition can invalidate a slot the scan
      // proved valid, and the batch is about to be labeled with the
      // v_now reloaded here. Writers need writer_mu_ exclusive, so
      // re-validating every guard under this shared hold is
      // authoritative — a slot that passes now provably answers at
      // v_now; everything else re-executes under the fallback.
      v_now = version_.load(std::memory_order_acquire);
      stale.clear();
      for (size_t i = 0; i < n; ++i) {
        if (!validation[i].ok()) continue;
        if (!guards[i].Validate()) stale.push_back(i);
      }
      restarts += stale.size();
      for (size_t i : stale) run_one(i, /*under_fallback=*/true);
      break;
    }
    // A label-pass re-execution is a restart in all but name: the slot's
    // answer was discarded because a writer touched its read set. Count
    // it, so olc_restarts_per_query reflects re-executed work and not
    // just intra-attempt validation failures.
    restarts += stale.size();
    for (size_t i : stale) run_one(i, /*under_fallback=*/false);
  }
  for (size_t i = 0; i < n; ++i) {
    if (validation[i].ok()) outs[i].read_version = v_now;
  }

  if (batch_stats != nullptr) {
    for (const QueryOutput& o : outs) {
      batch_stats->nodes_visited += o.stats.nodes_visited;
    }
    batch_stats->tuple_fetches += memo.fetches;
    batch_stats->shared_fetch_hits += memo.hits;
    batch_stats->olc_restarts += restarts;
    batch_stats->latch_wait_us += latch_wait;
    batch_stats->read_version = v_now;
  }
  return outs;
}

// ---------------------------------------------------------------------------
// Key rotation (§3.4).
// ---------------------------------------------------------------------------

Status VBTree::ResignRec(Node* node, const TupleFetcher& fetch) {
  if (node->is_leaf) {
    Leaf* leaf = MutableLeaf(node);
    for (LeafEntry& e : leaf->entries) {
      VBT_ASSIGN_OR_RETURN(Tuple t, fetch(e.key));
      if (t.key() != e.key) {
        return Status::Corruption("tuple key does not match leaf entry");
      }
      std::vector<Digest> attrs = ds_.AttributeDigests(t);
      e.attr_sigs.clear();
      e.attr_sigs.reserve(attrs.size());
      for (const Digest& a : attrs) {
        VBT_ASSIGN_OR_RETURN(Signature s, SignCounted(a));
        e.attr_sigs.push_back(std::move(s));
      }
      e.tuple_digest = ds_.CombineDigests(attrs);
      VBT_ASSIGN_OR_RETURN(e.tuple_sig, SignCounted(e.tuple_digest));
    }
    return RecomputeLeafDigest(leaf);
  }
  Internal* in = MutableInternal(node);
  for (Node* c : in->children) {
    VBT_RETURN_NOT_OK(ResignRec(c, fetch));
  }
  return RecomputeInternalDigest(in);
}

Status VBTree::ResignAll(Signer* new_signer, uint32_t new_key_version,
                         const TupleFetcher& fetch,
                         const std::string* rebind_table_name) {
  if (new_signer == nullptr) {
    return Status::InvalidArgument("ResignAll requires a signer");
  }
  std::unique_lock latch(writer_mu_);
  Signer* old_signer = signer_;
  const uint32_t old_key_version = opts_.key_version;
  DigestSchema old_ds = ds_;
  signer_ = new_signer;
  opts_.key_version = new_key_version;
  if (rebind_table_name != nullptr) {
    // Retire the lineage: every signature is being recomputed anyway, so
    // re-home the digest domain under the shard's own name. The placement
    // (and its per-write binding refresh) is cleared below on success.
    ds_ = DigestSchema(old_ds.db_name(), *rebind_table_name, old_ds.schema());
    ds_.set_counters(counters_);
  }
  BeginWrite();
  Status s = ResignRec(root_.load(std::memory_order_relaxed), fetch);
  if (s.ok() && rebind_table_name == nullptr) {
    // A kept placement must re-cover the re-signed root digest.
    s = RefreshBindingForCommit();
  }
  if (!s.ok()) {
    AbortWrite();
    signer_ = old_signer;
    opts_.key_version = old_key_version;
    ds_ = std::move(old_ds);
    return s;
  }
  if (rebind_table_name != nullptr) {
    const ShardPlacement* old_placement = placement_.exchange(
        nullptr, std::memory_order_release);
    if (old_placement != nullptr) {
      reclaimer_.Retire([old_placement] { delete old_placement; });
    }
  }
  // Publish the new key version together with the re-signed tree; the
  // version bump invalidates every replica so the propagation layer
  // re-distributes (deltas cannot express a re-sign).
  key_version_.store(new_key_version, std::memory_order_release);
  CommitWrite(/*bump_version=*/true);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shard placement + incremental-split surgery (DESIGN.md §10).
// ---------------------------------------------------------------------------

Status VBTree::BindPlacement(std::string verify_name, int64_t lo, int64_t hi) {
  if (signer_ == nullptr) {
    return Status::InvalidArgument(
        "BindPlacement requires the signing key (central server only)");
  }
  if (lo > hi) return Status::InvalidArgument("empty placement range");
  std::unique_lock latch(writer_mu_);
  auto* p = new ShardPlacement{std::move(verify_name), lo, hi};
  // Pre-publication by contract: no reader holds the tree yet, so the
  // root snapshot can be patched in place (no clone/word ceremony).
  Node* root = root_.load(std::memory_order_relaxed);
  NodeContent* c = root->content.load(std::memory_order_relaxed);
  Digest bd = ShardBindingDigest(ds_.db_name(), p->verify_name, p->lo, p->hi,
                                 c->digest);
  auto sig_or = SignCounted(bd);
  if (!sig_or.ok()) {
    delete p;
    return sig_or.status();
  }
  c->binding = sig_or.MoveValueUnsafe();
  delete placement_.exchange(p, std::memory_order_release);
  return Status::OK();
}

VBTree::Node* VBTree::CloneSubtree(const Node* src, VBTree* dst) const {
  const NodeContent* c = ColdRead(src);
  if (src->is_leaf) {
    auto* leaf = new Leaf(*static_cast<const Leaf*>(c));
    leaf->struct_version = 0;
    leaf->binding.clear();
    return new Node(dst->NextNodeId(), /*leaf=*/true, leaf);
  }
  const auto* src_in = static_cast<const Internal*>(c);
  auto* in = new Internal();
  in->digest = c->digest;
  in->sig = c->sig;
  in->keys = src_in->keys;
  in->children.reserve(src_in->children.size());
  for (const Node* ch : src_in->children) {
    in->children.push_back(CloneSubtree(ch, dst));
  }
  return new Node(dst->NextNodeId(), /*leaf=*/false, in);
}

Result<std::unique_ptr<VBTree>> VBTree::CloneRange(std::string verify_name,
                                                   int64_t lo,
                                                   int64_t hi) const {
  if (signer_ == nullptr) {
    return Status::InvalidArgument(
        "CloneRange requires the signing key (central server only)");
  }
  if (lo > hi) return Status::InvalidArgument("empty clone range");
  auto child = std::unique_ptr<VBTree>(
      new VBTree(ds_, opts_, signer_));
  child->counters_ = counters_;
  {
    std::shared_lock latch(writer_mu_);
    Node* new_root =
        CloneSubtree(root_.load(std::memory_order_acquire), child.get());
    DeleteSubtree(child->root_.load(std::memory_order_relaxed));
    child->root_.store(new_root, std::memory_order_relaxed);
    child->size_.store(size_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    child->opts_.key_version = opts_.key_version;
    child->key_version_.store(key_version_.load(std::memory_order_acquire),
                              std::memory_order_relaxed);
  }
  // Trim the full copy down to [lo, hi]: two boundary range-deletes whose
  // re-signing cost is O(height) — the split's entire crypto bill.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (lo != kMin) {
    VBT_RETURN_NOT_OK(child->DeleteRangeLocked(kMin, lo - 1).status());
  }
  if (hi != kMax) {
    VBT_RETURN_NOT_OK(child->DeleteRangeLocked(hi + 1, kMax).status());
  }
  // The child is a fresh distribution lineage: version 0, like BulkLoad.
  child->version_.store(0, std::memory_order_relaxed);
  VBT_RETURN_NOT_OK(child->BindPlacement(std::move(verify_name), lo, hi));
  return child;
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

Digest VBTree::root_digest() const {
  std::shared_lock latch(writer_mu_);
  return ColdRead(root_.load(std::memory_order_acquire))->digest;
}

Signature VBTree::root_signature() const {
  std::shared_lock latch(writer_mu_);
  return ColdRead(root_.load(std::memory_order_acquire))->sig;
}

int VBTree::height() const {
  std::shared_lock latch(writer_mu_);
  int h = 1;
  const Node* n = root_.load(std::memory_order_acquire);
  while (!n->is_leaf) {
    h++;
    n = static_cast<const Internal*>(ColdRead(n))->children[0];
  }
  return h;
}

uint64_t VBTree::node_count() const {
  std::shared_lock latch(writer_mu_);
  uint64_t count = 0;
  std::vector<const Node*> stack{root_.load(std::memory_order_acquire)};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    count++;
    if (!n->is_leaf) {
      for (const Node* c :
           static_cast<const Internal*>(ColdRead(n))->children) {
        stack.push_back(c);
      }
    }
  }
  return count;
}

Status VBTree::CheckDigestRec(const Node* node) const {
  const NodeContent* content = ColdRead(node);
  if (node->is_leaf) {
    const auto* leaf = static_cast<const Leaf*>(content);
    std::vector<Digest> ds;
    for (const LeafEntry& e : leaf->entries) ds.push_back(e.tuple_digest);
    Digest expect = ds_.ghash().Combine(ds);
    if (!(expect == content->digest)) {
      return Status::Corruption("leaf digest mismatch");
    }
    return Status::OK();
  }
  const auto* in = static_cast<const Internal*>(content);
  std::vector<Digest> ds;
  for (const Node* c : in->children) {
    VBT_RETURN_NOT_OK(CheckDigestRec(c));
    ds.push_back(ColdRead(c)->digest);
  }
  Digest expect = ds_.ghash().Combine(ds);
  if (!(expect == content->digest)) {
    return Status::Corruption("internal digest mismatch");
  }
  return Status::OK();
}

Status VBTree::CheckDigestConsistency() const {
  std::shared_lock latch(writer_mu_);
  return CheckDigestRec(root_.load(std::memory_order_acquire));
}

Result<size_t> VBTree::AuditSignatures(Recoverer* recoverer) const {
  if (recoverer == nullptr) {
    return Status::InvalidArgument("audit requires the public key");
  }
  std::shared_lock latch(writer_mu_);
  // First make sure the digest hierarchy itself is consistent.
  VBT_RETURN_NOT_OK(CheckDigestRec(root_.load(std::memory_order_acquire)));
  // Then check every stored signature against its digest.
  size_t audited = 0;
  if (const ShardPlacement* p = placement_.load(std::memory_order_acquire);
      p != nullptr) {
    const NodeContent* rc = ColdRead(root_.load(std::memory_order_acquire));
    VBT_ASSIGN_OR_RETURN(Digest bd, recoverer->Recover(rc->binding));
    Digest expect = ShardBindingDigest(ds_.db_name(), p->verify_name, p->lo,
                                       p->hi, rc->digest);
    if (!(bd == expect)) {
      return Status::VerificationFailure(
          "root placement binding signature does not match");
    }
    audited++;
  }
  std::vector<const Node*> stack{root_.load(std::memory_order_acquire)};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    const NodeContent* content = ColdRead(n);
    VBT_ASSIGN_OR_RETURN(Digest d, recoverer->Recover(content->sig));
    if (!(d == content->digest)) {
      return Status::VerificationFailure(
          "node " + std::to_string(n->id) + " signature does not match");
    }
    audited++;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const Leaf*>(content);
      for (const LeafEntry& e : leaf->entries) {
        VBT_ASSIGN_OR_RETURN(Digest td, recoverer->Recover(e.tuple_sig));
        if (!(td == e.tuple_digest)) {
          return Status::VerificationFailure(
              "tuple " + std::to_string(e.key) + " signature does not match");
        }
        audited++;
      }
    } else {
      for (const Node* c :
           static_cast<const Internal*>(content)->children) {
        stack.push_back(c);
      }
    }
  }
  return audited;
}

Status VBTree::CheckStructureRec(const Node* node, std::optional<int64_t> lo,
                                 std::optional<int64_t> hi, int depth,
                                 int* leaf_depth) const {
  auto in_bounds = [&](int64_t k) {
    if (lo.has_value() && k < *lo) return false;
    if (hi.has_value() && k >= *hi) return false;
    return true;
  };
  const NodeContent* content = ColdRead(node);
  if (node->is_leaf) {
    const auto* leaf = static_cast<const Leaf*>(content);
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    for (size_t i = 0; i < leaf->entries.size(); ++i) {
      if (i > 0 && leaf->entries[i - 1].key >= leaf->entries[i].key) {
        return Status::Corruption("leaf keys out of order");
      }
      if (!in_bounds(leaf->entries[i].key)) {
        return Status::Corruption("leaf key violates separator bounds");
      }
    }
    return Status::OK();
  }
  const auto* in = static_cast<const Internal*>(content);
  if (in->children.size() != in->keys.size() + 1) {
    return Status::Corruption("internal child/key count mismatch");
  }
  for (size_t i = 0; i < in->keys.size(); ++i) {
    if (i > 0 && in->keys[i - 1] >= in->keys[i]) {
      return Status::Corruption("internal keys out of order");
    }
    if (!in_bounds(in->keys[i])) {
      return Status::Corruption("separator violates parent bounds");
    }
  }
  for (size_t i = 0; i < in->children.size(); ++i) {
    std::optional<int64_t> clo = (i == 0) ? lo : std::optional(in->keys[i - 1]);
    std::optional<int64_t> chi =
        (i == in->keys.size()) ? hi : std::optional(in->keys[i]);
    VBT_RETURN_NOT_OK(
        CheckStructureRec(in->children[i], clo, chi, depth + 1, leaf_depth));
  }
  return Status::OK();
}

Status VBTree::CheckStructure() const {
  std::shared_lock latch(writer_mu_);
  int leaf_depth = -1;
  return CheckStructureRec(root_.load(std::memory_order_acquire), std::nullopt,
                           std::nullopt, 0, &leaf_depth);
}

std::vector<int64_t> VBTree::AllKeys() const {
  std::shared_lock latch(writer_mu_);
  std::vector<int64_t> keys;
  // Depth-first with children pushed in reverse: leaves visited
  // left-to-right, so keys come out in order (no leaf chain needed).
  std::vector<const Node*> stack{root_.load(std::memory_order_acquire)};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    const NodeContent* content = ColdRead(n);
    if (n->is_leaf) {
      for (const LeafEntry& e : static_cast<const Leaf*>(content)->entries) {
        keys.push_back(e.key);
      }
      continue;
    }
    const auto& children = static_cast<const Internal*>(content)->children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return keys;
}

std::vector<int64_t> VBTree::KeysInRange(int64_t lo, int64_t hi) const {
  std::shared_lock latch(writer_mu_);
  std::vector<int64_t> keys;
  std::vector<const Node*> stack{root_.load(std::memory_order_acquire)};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    const NodeContent* content = ColdRead(n);
    if (n->is_leaf) {
      for (const LeafEntry& e : static_cast<const Leaf*>(content)->entries) {
        if (e.key >= lo && e.key <= hi) keys.push_back(e.key);
      }
      continue;
    }
    const auto* in = static_cast<const Internal*>(content);
    for (size_t i = in->children.size(); i-- > 0;) {
      std::optional<int64_t> span_lo, span_hi;
      in->ChildSpan(i, &span_lo, &span_hi);
      bool overlap = (!span_lo.has_value() || *span_lo <= hi) &&
                     (!span_hi.has_value() || *span_hi > lo);
      if (overlap) stack.push_back(in->children[i]);
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Serialization (distribution to edge servers).
// ---------------------------------------------------------------------------

void VBTree::SerializeNode(const Node* node, ByteWriter* w) const {
  const NodeContent* content = ColdRead(node);
  w->PutU8(node->is_leaf ? 1 : 0);
  w->PutVarint(node->id);
  w->PutBytes(content->digest.AsSlice());
  w->PutLengthPrefixed(Slice(content->sig.data(), content->sig.size()));
  if (node->is_leaf) {
    const auto* leaf = static_cast<const Leaf*>(content);
    w->PutVarint(leaf->entries.size());
    for (const LeafEntry& e : leaf->entries) {
      w->PutI64(e.key);
      w->PutBytes(e.tuple_digest.AsSlice());
      w->PutLengthPrefixed(Slice(e.tuple_sig.data(), e.tuple_sig.size()));
      w->PutVarint(e.attr_sigs.size());
      for (const Signature& s : e.attr_sigs) {
        w->PutLengthPrefixed(Slice(s.data(), s.size()));
      }
    }
  } else {
    const auto* in = static_cast<const Internal*>(content);
    w->PutVarint(in->children.size());
    for (int64_t k : in->keys) w->PutI64(k);
    for (const Node* c : in->children) SerializeNode(c, w);
  }
}

void VBTree::SerializeTo(ByteWriter* w) const {
  std::shared_lock latch(writer_mu_);
  w->PutU32(kTreeMagic);
  w->PutString(ds_.db_name());
  w->PutString(ds_.table_name());
  ds_.schema().Serialize(w);
  w->PutU32(opts_.key_version);
  w->PutU32(static_cast<uint32_t>(opts_.config.max_internal));
  w->PutU32(static_cast<uint32_t>(opts_.config.max_leaf));
  w->PutVarint(size_.load(std::memory_order_relaxed));
  w->PutVarint(version_.load(std::memory_order_relaxed));
  // Shard-placement section (lineage shards): the binding signature ships
  // with the snapshot so edge replicas can root-anchor VOs immediately;
  // later refreshes ride the delta stream's signature feed.
  const ShardPlacement* p = placement_.load(std::memory_order_acquire);
  w->PutU8(p != nullptr ? 1 : 0);
  if (p != nullptr) {
    w->PutString(p->verify_name);
    w->PutI64(p->lo);
    w->PutI64(p->hi);
    const NodeContent* rc = ColdRead(root_.load(std::memory_order_acquire));
    w->PutLengthPrefixed(Slice(rc->binding.data(), rc->binding.size()));
  }
  SerializeNode(root_.load(std::memory_order_acquire), w);
}

Result<VBTree::Node*> VBTree::DeserializeNode(ByteReader* r,
                                              const Schema& schema, int depth,
                                              uint64_t* max_id) {
  if (depth > 64) return Status::Corruption("tree too deep");
  VBT_ASSIGN_OR_RETURN(uint8_t is_leaf, r->ReadU8());
  VBT_ASSIGN_OR_RETURN(uint64_t id, r->ReadVarint());
  VBT_ASSIGN_OR_RETURN(Slice digest_bytes, r->ReadBytes(kDigestLen));
  Digest digest;
  std::memcpy(digest.bytes.data(), digest_bytes.data(), kDigestLen);
  VBT_ASSIGN_OR_RETURN(Slice sig_bytes, r->ReadLengthPrefixed());
  Signature sig(sig_bytes.data(), sig_bytes.data() + sig_bytes.size());
  *max_id = std::max(*max_id, id);

  if (is_leaf != 0) {
    auto leaf = std::make_unique<Leaf>();
    leaf->digest = digest;
    leaf->sig = std::move(sig);
    VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
    leaf->entries.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      LeafEntry e;
      VBT_ASSIGN_OR_RETURN(e.key, r->ReadI64());
      VBT_ASSIGN_OR_RETURN(Slice td, r->ReadBytes(kDigestLen));
      std::memcpy(e.tuple_digest.bytes.data(), td.data(), kDigestLen);
      VBT_ASSIGN_OR_RETURN(Slice ts, r->ReadLengthPrefixed());
      e.tuple_sig.assign(ts.data(), ts.data() + ts.size());
      VBT_ASSIGN_OR_RETURN(uint64_t na, r->ReadCount());
      if (na != schema.num_columns()) {
        return Status::Corruption("attribute signature count mismatch");
      }
      e.attr_sigs.reserve(na);
      for (uint64_t a = 0; a < na; ++a) {
        VBT_ASSIGN_OR_RETURN(Slice as, r->ReadLengthPrefixed());
        e.attr_sigs.emplace_back(as.data(), as.data() + as.size());
      }
      leaf->entries.push_back(std::move(e));
    }
    return new Node(id, /*leaf=*/true, leaf.release());
  }

  auto in = std::make_unique<Internal>();
  in->digest = digest;
  in->sig = std::move(sig);
  VBT_ASSIGN_OR_RETURN(uint64_t nc, r->ReadCount());
  if (nc == 0) return Status::Corruption("internal node without children");
  in->keys.reserve(nc - 1);
  for (uint64_t i = 0; i + 1 < nc; ++i) {
    VBT_ASSIGN_OR_RETURN(int64_t k, r->ReadI64());
    in->keys.push_back(k);
  }
  in->children.reserve(nc);
  for (uint64_t i = 0; i < nc; ++i) {
    auto child_or = DeserializeNode(r, schema, depth + 1, max_id);
    if (!child_or.ok()) {
      // Raw shell pointers: free the partially built subtree explicitly.
      for (Node* ch : in->children) DeleteSubtree(ch);
      return child_or.status();
    }
    in->children.push_back(child_or.ValueOrDie());
  }
  return new Node(id, /*leaf=*/false, in.release());
}

Result<std::unique_ptr<VBTree>> VBTree::Deserialize(ByteReader* r,
                                                    Signer* signer) {
  VBT_ASSIGN_OR_RETURN(uint32_t magic, r->ReadU32());
  if (magic != kTreeMagic) return Status::Corruption("bad VB-tree magic");
  VBT_ASSIGN_OR_RETURN(std::string db, r->ReadString());
  VBT_ASSIGN_OR_RETURN(std::string table, r->ReadString());
  VBT_ASSIGN_OR_RETURN(Schema schema, Schema::Deserialize(r));
  // All header fields come from an untrusted stream: validate before use.
  VBTreeOptions opts;
  VBT_ASSIGN_OR_RETURN(opts.key_version, r->ReadU32());
  VBT_ASSIGN_OR_RETURN(uint32_t max_internal, r->ReadU32());
  VBT_ASSIGN_OR_RETURN(uint32_t max_leaf, r->ReadU32());
  constexpr uint32_t kMaxFanOut = 1u << 20;
  if (max_internal < 2 || max_internal > kMaxFanOut || max_leaf < 1 ||
      max_leaf > kMaxFanOut) {
    return Status::Corruption("bad node capacity");
  }
  opts.config.max_internal = static_cast<int>(max_internal);
  opts.config.max_leaf = static_cast<int>(max_leaf);
  VBT_ASSIGN_OR_RETURN(uint64_t size, r->ReadVarint());
  VBT_ASSIGN_OR_RETURN(uint64_t version, r->ReadVarint());
  VBT_ASSIGN_OR_RETURN(uint8_t has_placement, r->ReadU8());
  if (has_placement > 1) return Status::Corruption("bad placement flag");
  ShardPlacement placement;
  Signature binding;
  if (has_placement != 0) {
    VBT_ASSIGN_OR_RETURN(placement.verify_name, r->ReadString());
    VBT_ASSIGN_OR_RETURN(placement.lo, r->ReadI64());
    VBT_ASSIGN_OR_RETURN(placement.hi, r->ReadI64());
    if (placement.lo > placement.hi) {
      return Status::Corruption("bad placement range");
    }
    VBT_ASSIGN_OR_RETURN(Slice b, r->ReadLengthPrefixed());
    binding.assign(b.data(), b.data() + b.size());
  }

  DigestSchema ds(db, table, schema);
  auto tree =
      std::unique_ptr<VBTree>(new VBTree(std::move(ds), opts, signer));

  uint64_t max_id = 0;
  VBT_ASSIGN_OR_RETURN(Node* new_root,
                       DeserializeNode(r, schema, 0, &max_id));
  // Replace the constructor's placeholder root. Single-threaded: the tree
  // has not been published to any reader yet.
  DeleteSubtree(tree->root_.load(std::memory_order_relaxed));
  tree->root_.store(new_root, std::memory_order_relaxed);
  if (has_placement != 0) {
    new_root->content.load(std::memory_order_relaxed)->binding =
        std::move(binding);
    tree->placement_.store(new ShardPlacement(std::move(placement)),
                           std::memory_order_relaxed);
  }
  tree->size_.store(size, std::memory_order_relaxed);
  tree->version_.store(version, std::memory_order_relaxed);
  tree->next_node_id_ = max_id + 1;
  return tree;
}

}  // namespace vbtree
