#include "edge/central_server.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace vbtree {

namespace {
constexpr uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP"
/// Modulus size of the recoverable RSA signer (Options::use_rsa).
constexpr int kRsaBits = 1024;
constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();

/// Every row of `store`, decoded (join-view materialization and
/// maintenance read whole tables).
Result<std::vector<Tuple>> DecodeRows(const RowStore& store) {
  std::vector<Tuple> rows;
  Status status = Status::OK();
  store.Scan([&](int64_t, Slice bytes) {
    if (!status.ok()) return;
    ByteReader r(bytes);
    Result<Tuple> row = Tuple::Deserialize(&r, store.schema());
    if (row.ok()) {
      rows.push_back(row.MoveValueUnsafe());
    } else {
      status = row.status();
    }
  });
  VBT_RETURN_NOT_OK(status);
  return rows;
}

/// Brief backoff for writers racing a shard split: the parent domain is
/// sealed for the (short) window between seal and layout swap, during
/// which re-resolving still yields the retiring shard.
void SplitRetryBackoff(int attempt) {
  if (attempt < 16) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min(1000, 10 * (attempt - 15))));
  }
}
}  // namespace

Result<std::unique_ptr<CentralServer>> CentralServer::Create(Options options) {
  auto server = std::unique_ptr<CentralServer>(new CentralServer(options));
  std::unique_ptr<Signer> signer;
  std::shared_ptr<Recoverer> recoverer;
  VBT_RETURN_NOT_OK(
      server->MakeSigner(options.key_seed, &signer, &recoverer));
  server->current_signer_ = signer.get();
  server->signers_.push_back(std::move(signer));
  server->key_version_ = 1;
  server->key_valid_from_ = 0;
  server->key_directory_.Publish(
      KeyVersionInfo{1, 0, options.key_validity}, std::move(recoverer));
  if (options.auto_split) {
    server->policy_thread_ = std::thread([s = server.get()] { s->PolicyLoop(); });
  }
  return server;
}

CentralServer::~CentralServer() {
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    stopping_ = true;
    policy_cv_.notify_all();
  }
  if (policy_thread_.joinable()) policy_thread_.join();
  // Seal every write domain (drain + join workers) while the shards they
  // mutate are still alive.
  std::shared_lock maps(maps_mu_);
  for (auto& [name, state] : tables_) {
    std::shared_lock layout(state->layout_mu);
    for (auto& shard : state->shards) {
      if (shard->domain != nullptr) shard->domain->Seal();
    }
  }
}

Status CentralServer::MakeSigner(uint64_t seed,
                                 std::unique_ptr<Signer>* signer,
                                 std::shared_ptr<Recoverer>* recoverer) {
  if (options_.use_rsa) {
    VBT_ASSIGN_OR_RETURN(std::unique_ptr<RsaSigner> rsa,
                         RsaSigner::Generate(kRsaBits));
    VBT_ASSIGN_OR_RETURN(std::unique_ptr<RsaRecoverer> rec,
                         rsa->MakeRecoverer());
    *signer = std::move(rsa);
    *recoverer = std::move(rec);
    return Status::OK();
  }
  auto sim = std::make_unique<SimSigner>(seed, nullptr,
                                         options_.sim_work_factor);
  *recoverer = std::make_shared<SimRecoverer>(sim->key_material(), nullptr,
                                              options_.sim_work_factor);
  *signer = std::move(sim);
  return Status::OK();
}

Result<CentralServer::TableState*> CentralServer::GetTableState(
    const std::string& name) {
  std::shared_lock maps(maps_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.get();
}

Result<const CentralServer::TableState*> CentralServer::GetTableState(
    const std::string& name) const {
  std::shared_lock maps(maps_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.get();
}

Result<std::shared_ptr<CentralServer::ShardState>> CentralServer::ResolveShard(
    const std::string& dist_name) const {
  std::string base = dist_name;
  uint32_t shard_id = 0;
  bool qualified = PartitionMap::ParseShardName(dist_name, &base, &shard_id);
  VBT_ASSIGN_OR_RETURN(const TableState* table, GetTableState(base));
  std::shared_lock layout(table->layout_mu);
  for (const auto& shard : table->shards) {
    if (shard->shard_id == shard_id) return shard;
  }
  return Status::NotFound(qualified
                              ? "no shard named " + dist_name
                              : "table " + base +
                                    " is sharded; address shards by "
                                    "distribution name");
}

std::shared_ptr<CentralServer::ShardState> CentralServer::ShardForKey(
    const TableState& table, int64_t key) const {
  std::shared_lock layout(table.layout_mu);
  for (const auto& shard : table.shards) {
    if (key >= shard->lo && key <= shard->hi) return shard;
  }
  return nullptr;  // unreachable for a well-formed layout
}

std::shared_ptr<CentralServer::ShardState> CentralServer::MakeShardShell(
    const std::string& table, const Schema& schema, uint32_t shard_id,
    int64_t lo, int64_t hi) {
  auto shard = std::make_shared<ShardState>(schema, options_.update_log_window);
  shard->shard_id = shard_id;
  shard->lo = lo;
  shard->hi = hi;
  shard->dist_name = PartitionMap::ShardName(table, shard_id);
  shard->domain = std::make_unique<ShardWriteDomain>(shard->dist_name);
  return shard;
}

std::shared_ptr<CentralServer::ShardState> CentralServer::MakeShard(
    const std::string& table, const Schema& schema, uint32_t shard_id,
    int64_t lo, int64_t hi) {
  auto shard = MakeShardShell(table, schema, shard_id, lo, hi);
  VBTreeOptions opts = options_.tree_opts;
  opts.key_version = key_version_;
  // The digest schema is qualified by the shard's distribution name:
  // signatures minted for this shard verify ONLY against this shard.
  DigestSchema ds(options_.db_name, shard->dist_name, schema);
  shard->tree =
      std::make_unique<VBTree>(std::move(ds), opts, current_signer_);
  return shard;
}

Status CentralServer::SignTableMap(TableState* table) {
  table->map.shards.clear();
  for (const auto& shard : table->shards) {
    ShardEntry entry;
    entry.shard_id = shard->shard_id;
    entry.lo = shard->lo;
    entry.hi = shard->hi;
    // Split children keep their parent's digest domain until the next
    // key rotation re-homes them (DESIGN.md §10); the signed map tells
    // clients which domain to verify under and that a binding anchor is
    // expected.
    const std::string& ds_name = shard->tree->digest_schema().table_name();
    if (ds_name != shard->dist_name) entry.lineage = ds_name;
    table->map.shards.push_back(std::move(entry));
  }
  return SignMap(&table->map, &table->map_bytes);
}

Status CentralServer::SignMap(
    PartitionMap* map, std::shared_ptr<const std::vector<uint8_t>>* bytes) {
  map->db_name = options_.db_name;
  map->key_version = key_version_;
  VBT_RETURN_NOT_OK(map->CheckWellFormed());
  Digest content = map->ContentDigest();
  VBT_ASSIGN_OR_RETURN(map->sig, current_signer_->Sign(content));
  ByteWriter w(128);
  map->Serialize(&w);
  *bytes = std::make_shared<const std::vector<uint8_t>>(w.TakeBuffer());
  return Status::OK();
}

Result<table_id_t> CentralServer::CreateTable(const std::string& name,
                                              Schema schema) {
  return CreateTable(name, std::move(schema), {});
}

Result<table_id_t> CentralServer::CreateTable(
    const std::string& name, Schema schema,
    const std::vector<int64_t>& split_points) {
  if (name.find('#') != std::string::npos) {
    return Status::InvalidArgument(
        "table names must not contain '#' (reserved for shard qualifiers)");
  }
  for (size_t i = 0; i < split_points.size(); ++i) {
    if (split_points[i] == kMinKey) {
      return Status::InvalidArgument("split point at INT64_MIN is a no-op");
    }
    if (i > 0 && split_points[i] <= split_points[i - 1]) {
      return Status::InvalidArgument("split points must be strictly ascending");
    }
  }
  std::lock_guard<std::mutex> dml(dml_mu_);
  VBT_ASSIGN_OR_RETURN(table_id_t id, catalog_.CreateTable(name, schema));
  auto state = std::make_unique<TableState>();
  state->schema = schema;
  state->map.table = name;
  state->map.epoch = 1;
  if (split_points.empty()) {
    // Sole shard id 0: plain table name, digest-compatible with the
    // pre-sharding layout.
    state->shards.push_back(MakeShard(name, schema, 0, kMinKey, kMaxKey));
  } else {
    int64_t lo = kMinKey;
    for (size_t i = 0; i <= split_points.size(); ++i) {
      // The split point itself starts the next shard, so this shard ends
      // one key before it (the final shard pins INT64_MAX).
      const bool last = i == split_points.size();
      int64_t hi = last ? kMaxKey : split_points[i] - 1;
      state->shards.push_back(
          MakeShard(name, schema, state->next_shard_id++, lo, hi));
      if (!last) lo = split_points[i];
    }
  }
  VBT_RETURN_NOT_OK(SignTableMap(state.get()));
  {
    std::unique_lock maps(maps_mu_);
    tables_[name] = std::move(state);
    table_order_.push_back(name);
  }
  return id;
}

Status CentralServer::LoadTable(const std::string& name,
                                std::vector<Tuple> rows) {
  std::lock_guard<std::mutex> dml(dml_mu_);
  VBT_ASSIGN_OR_RETURN(TableState * state, GetTableState(name));
  std::sort(rows.begin(), rows.end(),
            [](const Tuple& a, const Tuple& b) { return a.key() < b.key(); });
  std::shared_lock layout(state->layout_mu);
  // Rows are sorted, shards ascend by range: one pass routes each
  // contiguous run to its owning shard.
  size_t r = 0;
  for (const auto& shard : state->shards) {
    const size_t begin = r;
    while (r < rows.size() && rows[r].key() <= shard->hi) ++r;
    if (r == begin) continue;
    const std::span<const Tuple> run(rows.data() + begin, r - begin);
    // Quiesce the shard's write pipeline: BulkLoad must observe the tree
    // at a clean op boundary (queued ops run after, and restart the log
    // lineage if they find versions they never logged).
    shard->domain->Pause();
    Status loaded;
    {
      std::unique_lock lock(shard->mu);
      loaded = shard->tree->BulkLoad(run);
      if (loaded.ok()) {
        for (const Tuple& row : run) shard->store.Put(row);
        shard->log.Reset(shard->tree->version());
      }
    }
    shard->domain->Resume();
    VBT_RETURN_NOT_OK(loaded);
  }
  return Status::OK();
}

Status CentralServer::ApplyInsert(ShardState* shard, const Tuple& tuple) {
  std::unique_lock lock(shard->mu);
  // Record the op for delta propagation: entry signature material plus
  // the node signatures the insert produces (deterministic signers give
  // the same bytes the tree stores).
  UpdateOp op;
  op.kind = UpdateOp::Kind::kInsert;
  op.tuple = tuple;
  VBT_ASSIGN_OR_RETURN(op.material, shard->tree->MakeEntryMaterial(tuple));
  shard->tree->set_signature_log(&op.resigned);
  Status insert_status = shard->tree->Insert(tuple);
  shard->tree->set_signature_log(nullptr);
  VBT_RETURN_NOT_OK(insert_status);
  // Tree first, so an insert the tree rejects (a duplicate key) stores
  // nothing. Every reader of a central store holds `mu`, which this op
  // holds exclusively, so no one sees the key before its row.
  shard->store.Put(tuple);
  if (shard->log.head_version() + 1 != shard->tree->version()) {
    // The tree was mutated out-of-band (direct tree() access by tests
    // or benches, or a bulk load that reset the lineage): those versions
    // were never logged, so restart the lineage — stale subscribers
    // catch up by snapshot.
    shard->log.Reset(shard->tree->version() - 1);
  }
  shard->log.Append(std::move(op));
  shard->domain->RecordInsertKey(tuple.key());
  return Status::OK();
}

Result<std::future<Status>> CentralServer::InsertTupleAsync(
    const std::string& name, const Tuple& tuple) {
  for (int attempt = 0;; ++attempt) {
    bool in_view = false;
    {
      // maps_mu_ is held shared across the view-membership check AND the
      // enqueue (see header): CreateJoinView registers view_refs_ under
      // the exclusive lock before draining, so a fast-path op it cannot
      // see is impossible.
      std::shared_lock maps(maps_mu_);
      auto it = tables_.find(name);
      if (it == tables_.end()) {
        return Status::NotFound("no table named " + name);
      }
      in_view = view_refs_.count(name) != 0;
      if (!in_view) {
        TableState* state = it->second.get();
        std::shared_ptr<ShardState> shard = ShardForKey(*state, tuple.key());
        if (shard == nullptr) {
          return Status::Internal("no shard owns key " +
                                  std::to_string(tuple.key()));
        }
        auto queued = shard->domain->Enqueue([this, shard, tuple] {
          return ApplyInsert(shard.get(), tuple);
        });
        if (queued.ok()) return queued;
        // Sealed: the shard is being split away; re-resolve against the
        // post-split layout.
      }
    }
    if (in_view) {
      // View-referenced table: maintenance is cross-table, so the op
      // runs on the serialized path and the future is already resolved.
      std::promise<Status> done;
      done.set_value(InsertTupleSerial(name, tuple));
      return done.get_future();
    }
    SplitRetryBackoff(attempt);
  }
}

Status CentralServer::InsertTuple(const std::string& name, const Tuple& tuple) {
  VBT_ASSIGN_OR_RETURN(std::future<Status> done, InsertTupleAsync(name, tuple));
  return done.get();
}

Status CentralServer::InsertTupleSerial(const std::string& name,
                                        const Tuple& tuple) {
  std::lock_guard<std::mutex> views(views_mu_);
  for (int attempt = 0;; ++attempt) {
    std::future<Status> done;
    {
      std::shared_lock maps(maps_mu_);
      auto it = tables_.find(name);
      if (it == tables_.end()) {
        return Status::NotFound("no table named " + name);
      }
      std::shared_ptr<ShardState> shard =
          ShardForKey(*it->second, tuple.key());
      if (shard == nullptr) {
        return Status::Internal("no shard owns key " +
                                std::to_string(tuple.key()));
      }
      auto queued = shard->domain->Enqueue([this, shard, tuple] {
        return ApplyInsert(shard.get(), tuple);
      });
      if (queued.ok()) done = std::move(*queued);
    }
    if (!done.valid()) {
      SplitRetryBackoff(attempt);
      continue;
    }
    // Safe to wait while holding views_mu_: domain ops never take it.
    VBT_RETURN_NOT_OK(done.get());
    break;
  }
  return MaintainViewsOnInsert(name, tuple);
}

Status CentralServer::MaintainViewsOnInsert(const std::string& name,
                                            const Tuple& tuple) {
  // Iterating views_ is safe while holding views_mu_: CreateJoinView is
  // the only writer of the map and takes views_mu_ too.
  for (auto& [view_name, vs] : views_) {
    const JoinSpec& spec = vs->view->spec();
    if (spec.left_table == name) {
      VBT_ASSIGN_OR_RETURN(
          std::vector<Tuple> matches,
          MatchingRows(spec.right_table, spec.right_col,
                       tuple.value(spec.left_col)));
      std::unique_lock vlock(vs->mu);
      for (const Tuple& right : matches) {
        VBT_RETURN_NOT_OK(vs->view->AddJoinedRow(tuple, right));
      }
    }
    if (spec.right_table == name) {
      VBT_ASSIGN_OR_RETURN(
          std::vector<Tuple> matches,
          MatchingRows(spec.left_table, spec.left_col,
                       tuple.value(spec.right_col)));
      std::unique_lock vlock(vs->mu);
      for (const Tuple& left : matches) {
        VBT_RETURN_NOT_OK(vs->view->AddJoinedRow(left, tuple));
      }
    }
  }
  return Status::OK();
}

Status CentralServer::ApplyDelete(ShardState* shard, int64_t lo, int64_t hi,
                                  std::vector<int64_t>* removed) {
  std::unique_lock lock(shard->mu);
  UpdateOp op;
  op.kind = UpdateOp::Kind::kDeleteRange;
  op.lo = lo;
  op.hi = hi;
  shard->tree->set_signature_log(&op.resigned);
  Status deleted = shard->tree->DeleteRange(lo, hi).status();
  shard->tree->set_signature_log(nullptr);
  VBT_RETURN_NOT_OK(deleted);
  *removed = shard->store.RemoveKeyRange(lo, hi);
  if (shard->log.head_version() + 1 != shard->tree->version()) {
    shard->log.Reset(shard->tree->version() - 1);
  }
  shard->log.Append(std::move(op));
  return Status::OK();
}

Result<size_t> CentralServer::DeleteRange(const std::string& name, int64_t lo,
                                          int64_t hi) {
  if (lo > hi) return static_cast<size_t>(0);
  // Held once the table turns out to feed a join view: maintenance is
  // cross-table, so such deletes serialize (see the class comment).
  std::unique_lock<std::mutex> views(views_mu_, std::defer_lock);
  std::vector<int64_t> removed;
  for (int attempt = 0;; ++attempt) {
    // One clamped op per overlapping domain, then wait on all of them:
    // each shard's log records the delete at that shard's own sequence
    // point (the cross-shard fence; see the class comment).
    std::vector<std::future<Status>> waits;
    std::vector<std::shared_ptr<std::vector<int64_t>>> keys;
    bool sealed = false;
    {
      // maps_mu_ is held shared across the view-membership check AND the
      // enqueue, as on the insert path.
      std::shared_lock maps(maps_mu_);
      auto it = tables_.find(name);
      if (it == tables_.end()) {
        return Status::NotFound("no table named " + name);
      }
      if (!views.owns_lock() && view_refs_.count(name) != 0) {
        maps.unlock();
        views.lock();
        continue;
      }
      std::shared_lock layout(it->second->layout_mu);
      for (const auto& shard : it->second->shards) {
        if (shard->lo > hi || shard->hi < lo) continue;
        const int64_t clamped_lo = std::max(lo, shard->lo);
        const int64_t clamped_hi = std::min(hi, shard->hi);
        auto shard_keys = std::make_shared<std::vector<int64_t>>();
        auto queued = shard->domain->Enqueue(
            [this, shard, clamped_lo, clamped_hi, shard_keys] {
              return ApplyDelete(shard.get(), clamped_lo, clamped_hi,
                                 shard_keys.get());
            });
        if (!queued.ok()) {
          // Mid-split: finish what was queued (clamped deletes are
          // idempotent — a retry removes nothing twice), then retry
          // against the post-split layout.
          sealed = true;
          break;
        }
        waits.push_back(std::move(*queued));
        keys.push_back(std::move(shard_keys));
      }
    }
    // Safe to wait while holding views_mu_: domain ops never take it.
    Status first_error = Status::OK();
    for (auto& w : waits) {
      Status s = w.get();
      if (!s.ok() && first_error.ok()) first_error = s;
    }
    for (const auto& k : keys) {
      removed.insert(removed.end(), k->begin(), k->end());
    }
    VBT_RETURN_NOT_OK(first_error);
    if (!sealed) break;
    SplitRetryBackoff(attempt);
  }

  if (views.owns_lock()) {
    for (auto& [view_name, vs] : views_) {
      const JoinSpec& spec = vs->view->spec();
      std::unique_lock vlock(vs->mu);
      for (int64_t key : removed) {
        if (spec.left_table == name) {
          VBT_RETURN_NOT_OK(vs->view->RemoveByLeftKey(key).status());
        }
        if (spec.right_table == name) {
          VBT_RETURN_NOT_OK(vs->view->RemoveByRightKey(key).status());
        }
      }
    }
  }
  return removed.size();
}

Status CentralServer::SplitShard(const std::string& name, int64_t split_key) {
  std::lock_guard<std::mutex> dml(dml_mu_);
  VBT_ASSIGN_OR_RETURN(TableState * state, GetTableState(name));

  std::shared_ptr<ShardState> parent = ShardForKey(*state, split_key);
  if (parent == nullptr || parent->lo >= split_key) {
    return Status::InvalidArgument(
        "split key must fall strictly inside an existing shard range");
  }

  // 1. Seal the parent's write pipeline: queued ops drain into its log,
  // then the worker exits. Writers racing the seal get kResourceExhausted from
  // Enqueue and retry against the post-split layout installed below.
  parent->domain->Seal();

  // Fresh ids for both halves: pre-split signatures can never alias a
  // current shard. Shells only — the trees come from CloneRange.
  auto left = MakeShardShell(name, state->schema, state->next_shard_id++,
                             parent->lo, split_key - 1);
  auto right = MakeShardShell(name, state->schema, state->next_shard_id++,
                              split_key, parent->hi);

  {
    std::shared_lock lock(parent->mu);  // exports may still be reading
    // 2. Hand each child the parent's rows in its range. Leaf entries
    // address rows by key, so nothing in the trees changes with them.
    parent->store.Scan([&](int64_t key, Slice row) {
      (key < split_key ? left : right)->store.PutEncoded(key, row);
    });

    // 3. O(boundary) tree surgery: each child deep-copies the parent's
    // already-signed nodes, trims to its range, and re-signs only the
    // O(height) trim boundary plus its root binding. The per-row and
    // interior signatures transfer verbatim because the children stay in
    // the parent's digest domain (lineage; see SignTableMap).
    VBT_ASSIGN_OR_RETURN(
        left->tree,
        parent->tree->CloneRange(left->dist_name, left->lo, left->hi));
    VBT_ASSIGN_OR_RETURN(
        right->tree,
        parent->tree->CloneRange(right->dist_name, right->lo, right->hi));
  }
  left->log.Reset(left->tree->version());
  right->log.Reset(right->tree->version());

  std::unique_lock layout(state->layout_mu);
  auto pos = std::find(state->shards.begin(), state->shards.end(), parent);
  if (pos == state->shards.end()) {
    return Status::Internal("parent shard vanished during split");
  }
  pos = state->shards.erase(pos);
  pos = state->shards.insert(pos, std::move(right));
  state->shards.insert(pos, std::move(left));
  state->map.epoch++;
  return SignTableMap(state);
}

Result<size_t> CentralServer::ShardCount(const std::string& name) const {
  VBT_ASSIGN_OR_RETURN(const TableState* state, GetTableState(name));
  std::shared_lock layout(state->layout_mu);
  return state->shards.size();
}

Result<PartitionMap> CentralServer::TablePartitionMap(
    const std::string& name) const {
  {
    std::shared_lock maps(maps_mu_);
    auto view_it = views_.find(name);
    if (view_it != views_.end()) {
      std::shared_lock vlock(view_it->second->mu);
      return view_it->second->map;
    }
  }
  VBT_ASSIGN_OR_RETURN(const TableState* state, GetTableState(name));
  std::shared_lock layout(state->layout_mu);
  return state->map;
}

Result<std::vector<Tuple>> CentralServer::MatchingRows(
    const std::string& table, size_t col, const Value& value) const {
  VBT_ASSIGN_OR_RETURN(const TableState* state, GetTableState(table));
  std::vector<std::shared_ptr<ShardState>> shards;
  {
    std::shared_lock layout(state->layout_mu);
    shards = state->shards;
  }
  std::vector<Tuple> out;
  for (const auto& shard : shards) {
    std::shared_lock lock(shard->mu);
    VBT_ASSIGN_OR_RETURN(std::vector<Tuple> rows, DecodeRows(shard->store));
    for (Tuple& t : rows) {
      if (t.value(col).Compare(value) == 0) out.push_back(std::move(t));
    }
  }
  return out;
}

Status CentralServer::CreateJoinView(const JoinSpec& spec) {
  if (spec.view_name.find('#') != std::string::npos) {
    return Status::InvalidArgument(
        "view names must not contain '#' (reserved for shard qualifiers)");
  }
  std::lock_guard<std::mutex> dml(dml_mu_);
  {
    std::shared_lock maps(maps_mu_);
    if (views_.count(spec.view_name) != 0 ||
        tables_.count(spec.view_name) != 0) {
      return Status::AlreadyExists("name already in use: " + spec.view_name);
    }
  }
  VBT_ASSIGN_OR_RETURN(const TableState* left, GetTableState(spec.left_table));
  VBT_ASSIGN_OR_RETURN(const TableState* right,
                       GetTableState(spec.right_table));

  // Re-route the base tables' DML to the serialized path BEFORE
  // materializing: registration happens under the exclusive maps lock,
  // and the fast path holds it shared across its membership check and
  // enqueue, so every fast-path op is either already queued (the drain
  // below flushes it into the materialization scan) or will see the
  // registration and serialize behind views_mu_.
  {
    std::unique_lock maps(maps_mu_);
    view_refs_.insert(spec.left_table);
    view_refs_.insert(spec.right_table);
  }
  auto unregister = [&] {
    std::unique_lock maps(maps_mu_);
    view_refs_.erase(view_refs_.find(spec.left_table));
    view_refs_.erase(view_refs_.find(spec.right_table));
  };
  std::lock_guard<std::mutex> views(views_mu_);
  for (const TableState* base : {left, right}) {
    std::shared_lock layout(base->layout_mu);
    for (const auto& shard : base->shards) shard->domain->Drain();
  }

  auto collect_rows =
      [](const TableState* table) -> Result<std::vector<Tuple>> {
    std::vector<Tuple> rows;
    std::shared_lock layout(table->layout_mu);
    for (const auto& shard : table->shards) {
      std::shared_lock lock(shard->mu);
      VBT_ASSIGN_OR_RETURN(std::vector<Tuple> shard_rows, DecodeRows(shard->store));
      for (Tuple& t : shard_rows) rows.push_back(std::move(t));
    }
    return rows;
  };
  auto materialize = [&]() -> Status {
    VBT_ASSIGN_OR_RETURN(std::vector<Tuple> left_rows, collect_rows(left));
    VBT_ASSIGN_OR_RETURN(std::vector<Tuple> right_rows, collect_rows(right));

    VBTreeOptions opts = options_.tree_opts;
    opts.key_version = key_version_;
    VBT_ASSIGN_OR_RETURN(
        std::unique_ptr<JoinView> view,
        JoinView::Materialize(spec, options_.db_name, left->schema,
                              right->schema, left_rows, right_rows,
                              current_signer_, opts));
    auto vs = std::make_unique<ViewState>();
    vs->view = std::move(view);
    // A view is one unsplit shard: id 0, plain name, the whole domain.
    vs->map.table = spec.view_name;
    vs->map.epoch = 1;
    vs->map.shards = {ShardEntry{0, kMinKey, kMaxKey, ""}};
    VBT_RETURN_NOT_OK(SignMap(&vs->map, &vs->map_bytes));
    VBT_RETURN_NOT_OK(
        catalog_.CreateTable(spec.view_name, vs->view->schema(),
                             /*is_view=*/true)
            .status());
    {
      std::unique_lock maps(maps_mu_);
      views_[spec.view_name] = std::move(vs);
      view_order_.push_back(spec.view_name);
    }
    return Status::OK();
  };
  Status created = materialize();
  if (!created.ok()) unregister();
  return created;
}

Result<const JoinView*> CentralServer::GetJoinView(
    const std::string& view_name) const {
  std::shared_lock maps(maps_mu_);
  auto it = views_.find(view_name);
  if (it == views_.end()) return Status::NotFound("no view " + view_name);
  return it->second->view.get();
}

void CentralServer::ExportRowsAndTree(const std::string& name,
                                      const RowStore& store,
                                      const VBTree& tree, ByteWriter* w) {
  w->PutU32(kSnapshotMagic);
  w->PutString(name);
  store.schema().Serialize(w);
  // The caller's latch keeps the store still between the count and the
  // scan. Rows ship as the bytes they rest as; the leaf entries address
  // them by key.
  w->PutVarint(store.size());
  store.Scan([w](int64_t, Slice row) { w->PutBytes(row); });
  // The tree carries the replica version.
  tree.SerializeTo(w);
}

Result<std::vector<uint8_t>> CentralServer::ExportTableSnapshot(
    const std::string& name) const {
  ByteWriter w(1 << 16);
  {
    std::shared_lock maps(maps_mu_);
    auto view_it = views_.find(name);
    if (view_it != views_.end()) {
      const ViewState* vs = view_it->second.get();
      std::shared_lock vlock(vs->mu);
      ExportRowsAndTree(name, vs->view->store(), *vs->view->tree(), &w);
      return w.TakeBuffer();
    }
  }
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> shard, ResolveShard(name));
  std::shared_lock lock(shard->mu);
  ExportRowsAndTree(shard->dist_name, shard->store, *shard->tree, &w);
  return w.TakeBuffer();
}

Result<UpdateBatch> CentralServer::DeltaSince(const std::string& name,
                                              uint64_t from_version,
                                              size_t max_ops) const {
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> shard, ResolveShard(name));
  std::shared_lock lock(shard->mu);
  return shard->log.BatchSince(shard->dist_name, from_version, max_ops);
}

Result<bool> CentralServer::DeltaCovers(const std::string& name,
                                        uint64_t from_version) const {
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> shard, ResolveShard(name));
  std::shared_lock lock(shard->mu);
  // A log whose head trails the tree version means the tree was mutated
  // out-of-band: a delta replay would silently diverge, so force a
  // snapshot until the next DML restarts the lineage.
  return shard->log.Covers(from_version) &&
         shard->log.head_version() == shard->tree->version();
}

Status CentralServer::TruncateLog(const std::string& name, uint64_t version) {
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> shard, ResolveShard(name));
  std::unique_lock lock(shard->mu);
  shard->log.TruncateThrough(version);
  return Status::OK();
}

Result<uint64_t> CentralServer::VersionOf(const std::string& name) const {
  {
    std::shared_lock maps(maps_mu_);
    auto view_it = views_.find(name);
    if (view_it != views_.end()) return view_it->second->view->tree()->version();
  }
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> shard, ResolveShard(name));
  return shard->tree->version();
}

std::vector<std::string> CentralServer::TableNames() const {
  std::shared_lock maps(maps_mu_);
  return table_order_;
}

std::vector<std::string> CentralServer::ViewNames() const {
  std::shared_lock maps(maps_mu_);
  return view_order_;
}

std::vector<std::string> CentralServer::ShardNames() const {
  std::shared_lock maps(maps_mu_);
  std::vector<std::string> names;
  for (const std::string& table : table_order_) {
    auto it = tables_.find(table);
    if (it == tables_.end()) continue;
    std::shared_lock layout(it->second->layout_mu);
    for (const auto& shard : it->second->shards) {
      names.push_back(shard->dist_name);
    }
  }
  return names;
}

std::vector<CentralServer::MapInfo> CentralServer::PartitionMaps() const {
  std::shared_lock maps(maps_mu_);
  std::vector<MapInfo> out;
  for (const std::string& table : table_order_) {
    auto it = tables_.find(table);
    if (it == tables_.end()) continue;
    std::shared_lock layout(it->second->layout_mu);
    out.push_back(MapInfo{table, it->second->map.epoch,
                          it->second->map_bytes});
  }
  for (const std::string& view : view_order_) {
    auto it = views_.find(view);
    if (it == views_.end()) continue;
    std::shared_lock vlock(it->second->mu);
    out.push_back(
        MapInfo{view, it->second->map.epoch, it->second->map_bytes});
  }
  return out;
}

Status CentralServer::RotateKey(uint64_t now) {
  std::lock_guard<std::mutex> dml(dml_mu_);
  // Quiesce every write domain: rotation is the one global sequence
  // point (every shard re-signs under the new key). Queued ops are
  // retained and apply after Resume, under the new key — they are
  // simply later ops in each shard's stream.
  std::vector<std::shared_ptr<ShardState>> all_shards;
  {
    std::shared_lock maps(maps_mu_);
    for (auto& [name, state] : tables_) {
      std::shared_lock layout(state->layout_mu);
      for (auto& shard : state->shards) all_shards.push_back(shard);
    }
  }
  for (auto& shard : all_shards) shard->domain->Pause();
  auto resume_all = [&] {
    for (auto& shard : all_shards) shard->domain->Resume();
  };

  // Old private key retires: results signed with it remain verifiable only
  // within its (now truncated) validity window, so edge servers cannot
  // masquerade stale data as current (§3.4).
  Status expired = key_directory_.Expire(key_version_, now);
  if (!expired.ok()) {
    resume_all();
    return expired;
  }

  std::unique_ptr<Signer> signer;
  std::shared_ptr<Recoverer> recoverer;
  Status made =
      MakeSigner(options_.key_seed + key_version_ + 1, &signer, &recoverer);
  if (!made.ok()) {
    resume_all();
    return made;
  }
  current_signer_ = signer.get();
  signers_.push_back(std::move(signer));
  key_version_++;
  key_valid_from_ = now;
  key_directory_.Publish(
      KeyVersionInfo{key_version_, now, now + options_.key_validity},
      std::move(recoverer));

  auto rotate_all = [&]() -> Status {
    for (auto& [name, state] : tables_) {
      std::unique_lock layout(state->layout_mu);
      for (auto& shard : state->shards) {
        std::unique_lock lock(shard->mu);
        // The O(rows) re-sign a rotation must pay anyway is the moment a
        // lineage shard (split child still in its parent's digest
        // domain) is re-homed under its own name: the rebind drops the
        // root binding and retires the lineage (DESIGN.md §10).
        const std::string* rebind =
            shard->tree->digest_schema().table_name() != shard->dist_name
                ? &shard->dist_name
                : nullptr;
        VBT_RETURN_NOT_OK(shard->tree->ResignAll(
            current_signer_, key_version_, shard->store.Fetcher(), rebind));
        // A re-sign cannot ship as a delta: restart the log lineage so
        // every subscriber catches up with a fresh snapshot.
        shard->log.Reset(shard->tree->version());
      }
      // The map signature must also move to the new key (and lineage
      // entries clear); bump the epoch so the hub re-ships it (and
      // clients advance their epoch floors).
      state->map.epoch++;
      VBT_RETURN_NOT_OK(SignTableMap(state.get()));
    }
    for (auto& [name, vs] : views_) {
      std::unique_lock vlock(vs->mu);
      VBT_RETURN_NOT_OK(vs->view->tree()->ResignAll(
          current_signer_, key_version_, vs->view->store().Fetcher()));
      vs->map.epoch++;
      VBT_RETURN_NOT_OK(SignMap(&vs->map, &vs->map_bytes));
    }
    return Status::OK();
  };
  Status rotated = rotate_all();
  resume_all();
  return rotated;
}

Result<CentralServer::SnapshotShape> CentralServer::SnapshotShapeOf(
    const std::string& name) const {
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> shard, ResolveShard(name));
  return SnapshotShape{
      shard->tree->size(),
      shard->tree->digest_schema().schema().num_columns()};
}

VBTree* CentralServer::tree(const std::string& name) {
  auto shard = ResolveShard(name);
  if (shard.ok()) return (*shard)->tree.get();
  std::shared_lock maps(maps_mu_);
  auto vit = views_.find(name);
  return vit != views_.end() ? vit->second->view->tree() : nullptr;
}

Result<std::vector<CentralServer::DomainStats>>
CentralServer::TableDomainStats(const std::string& name) const {
  VBT_ASSIGN_OR_RETURN(const TableState* state, GetTableState(name));
  std::vector<std::shared_ptr<ShardState>> shards;
  {
    std::shared_lock layout(state->layout_mu);
    shards = state->shards;
  }
  std::vector<DomainStats> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) {
    ShardWriteDomain::Stats ds = shard->domain->stats();
    DomainStats s;
    s.dist_name = shard->dist_name;
    s.lo = shard->lo;
    s.hi = shard->hi;
    s.ops_enqueued = ds.ops_enqueued;
    s.ops_applied = ds.ops_applied;
    s.queue_depth = ds.queue_depth;
    s.queue_depth_peak = ds.queue_depth_peak;
    s.queue_depth_p99 = ds.queue_depth_p99;
    s.sign_calls = shard->tree->sign_calls();
    s.tree_version = shard->tree->version();
    s.rows = shard->tree->size();
    out.push_back(std::move(s));
  }
  return out;
}

void CentralServer::PolicyLoop() {
  // Per-shard ops_applied at the start of the current window, and the
  // last split time per table (cooldown) — policy-thread-private.
  std::map<std::string, uint64_t> ops_baseline;
  std::map<std::string, std::chrono::steady_clock::time_point> last_split;
  std::unique_lock lock(policy_mu_);
  while (!stopping_) {
    policy_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.auto_split_interval_ms));
    if (stopping_) break;
    lock.unlock();
    RunSplitPolicyOnce(&ops_baseline, &last_split);
    lock.lock();
  }
}

void CentralServer::RunSplitPolicyOnce(
    std::map<std::string, uint64_t>* ops_baseline,
    std::map<std::string, std::chrono::steady_clock::time_point>* last_split) {
  const auto now = std::chrono::steady_clock::now();
  for (const std::string& table : TableNames()) {
    auto state_or = GetTableState(table);
    if (!state_or.ok()) continue;
    const TableState* state = *state_or;
    std::vector<std::shared_ptr<ShardState>> shards;
    {
      std::shared_lock layout(state->layout_mu);
      shards = state->shards;
    }

    // Window traffic per shard: ops_applied delta since the last pass.
    // Baselines advance even for tables skipped below, so a table coming
    // off cooldown is judged on fresh traffic, not the backlog.
    std::vector<uint64_t> window(shards.size(), 0);
    uint64_t total = 0;
    for (size_t i = 0; i < shards.size(); ++i) {
      const uint64_t applied = shards[i]->domain->ops_applied();
      uint64_t& base = (*ops_baseline)[shards[i]->dist_name];
      window[i] = applied - base;
      base = applied;
      total += window[i];
    }

    if (shards.size() >= options_.auto_split_max_shards) continue;
    auto cooled = last_split->find(table);
    if (cooled != last_split->end() &&
        now - cooled->second <
            std::chrono::milliseconds(options_.auto_split_cooldown_ms)) {
      continue;
    }

    // Hot = clears the absolute traffic floor AND (when there are
    // siblings to compare against) exceeds skew x the table mean. A
    // sole shard with real traffic is always hot: splitting it is what
    // bootstraps parallel signing.
    const double mean =
        shards.empty() ? 0.0 : static_cast<double>(total) / shards.size();
    size_t hot = shards.size();
    uint64_t hot_ops = 0;
    for (size_t i = 0; i < shards.size(); ++i) {
      if (window[i] < options_.auto_split_min_ops) continue;
      if (shards.size() > 1 &&
          static_cast<double>(window[i]) <= options_.auto_split_skew * mean) {
        continue;
      }
      if (shards[i]->tree->size() < options_.auto_split_min_rows) continue;
      if (window[i] > hot_ops) {
        hot = i;
        hot_ops = window[i];
      }
    }
    if (hot == shards.size()) continue;
    const auto& shard = shards[hot];

    // Split where the traffic is: the median of the shard's recent
    // insert keys bisects the hot range even when the stored-key median
    // sits elsewhere. Fall back to the stored-key median for read-mostly
    // shards that went hot without fresh inserts.
    std::vector<int64_t> keys = shard->domain->RecentInsertKeys();
    std::erase_if(keys, [&](int64_t k) {
      return k <= shard->lo || k > shard->hi;
    });
    if (keys.empty()) {
      keys = shard->tree->KeysInRange(shard->lo, shard->hi);
      std::erase_if(keys, [&](int64_t k) { return k <= shard->lo; });
    }
    if (keys.empty()) continue;
    std::nth_element(keys.begin(), keys.begin() + keys.size() / 2, keys.end());
    const int64_t split_key = keys[keys.size() / 2];
    if (split_key <= shard->lo || split_key > shard->hi) continue;

    // One split per table per pass; convergence is iterative (the next
    // window re-measures the halves).
    if (SplitShard(table, split_key).ok()) {
      splits_triggered_.fetch_add(1, std::memory_order_relaxed);
      (*last_split)[table] = now;
    }
  }
}

}  // namespace vbtree
