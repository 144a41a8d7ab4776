#include "edge/edge_server.h"

#include <chrono>

#include "edge/propagation/update_log.h"
#include "query/query_serde.h"

namespace vbtree {

namespace {
constexpr uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP"

/// Splits a replica name into (base table, shard id): "t#3" → ("t", 3),
/// plain "t" → ("t", 0) — id 0 is the sole shard of an unsplit table.
void SplitReplicaName(const std::string& name, std::string* base,
                      uint32_t* shard_id) {
  if (!PartitionMap::ParseShardName(name, base, shard_id)) {
    *base = name;
    *shard_id = 0;
  }
}
}  // namespace

Status EdgeServer::InstallSnapshot(Slice snapshot) {
  ByteReader r(snapshot);
  // Parse fully before taking the exclusive latch.
  VBT_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kSnapshotMagic) return Status::Corruption("bad snapshot magic");
  VBT_ASSIGN_OR_RETURN(std::string table, r.ReadString());
  VBT_ASSIGN_OR_RETURN(Schema schema, Schema::Deserialize(&r));

  auto replica = std::make_shared<TableReplica>();
  replica->schema = schema;
  VBT_ASSIGN_OR_RETURN(uint64_t n, r.ReadCount());
  for (uint64_t i = 0; i < n; ++i) {
    Rid rid;
    VBT_ASSIGN_OR_RETURN(uint32_t page, r.ReadU32());
    rid.page_id = static_cast<int32_t>(page);
    VBT_ASSIGN_OR_RETURN(rid.slot, r.ReadU16());
    VBT_ASSIGN_OR_RETURN(Tuple t, Tuple::Deserialize(&r, schema));
    VBT_RETURN_NOT_OK(replica->store.Put(rid, std::move(t)));
  }
  // Edge replicas have no signer: updates are rejected locally and must be
  // routed to the central server (§3.4). The tree carries its replica
  // version end-to-end.
  VBT_ASSIGN_OR_RETURN(replica->tree, VBTree::Deserialize(&r, nullptr));
  {
    std::unique_lock lock(mu_);
    // Map gating: once a PartitionMap is installed for the base table,
    // only shards of the *current* layout may be installed — a pre-split
    // shard snapshot cannot resurrect a retired layout on this edge.
    std::string base;
    uint32_t shard_id = 0;
    SplitReplicaName(table, &base, &shard_id);
    auto m = maps_.find(base);
    if (m != maps_.end() && m->second.map.FindShard(shard_id) == nullptr) {
      return Status::InvalidArgument(
          "snapshot of shard '" + table +
          "' is not in the installed partition map (epoch " +
          std::to_string(m->second.map.epoch) + ")");
    }
    // Swap, don't mutate: in-flight batches pinned the old replica and
    // finish against its (still consistent) state; the old shared_ptr
    // dies with the last of them.
    tables_[table] = std::move(replica);
  }
  return Status::OK();
}

Status EdgeServer::InstallPartitionMap(Slice map_bytes) {
  ByteReader r(map_bytes);
  VBT_ASSIGN_OR_RETURN(PartitionMap map, PartitionMap::Deserialize(&r));
  auto bytes = std::make_shared<const std::vector<uint8_t>>(
      map_bytes.data(), map_bytes.data() + map_bytes.size());
  {
    std::unique_lock lock(mu_);
    auto it = maps_.find(map.table);
    if (it != maps_.end() && it->second.map.epoch > map.epoch) {
      return Status::InvalidArgument(
          "stale partition map epoch " + std::to_string(map.epoch) +
          " for '" + map.table + "' (installed epoch " +
          std::to_string(it->second.map.epoch) + ")");
    }
    // Retire replicas that left the layout.
    for (auto t = tables_.begin(); t != tables_.end();) {
      std::string base;
      uint32_t shard_id = 0;
      SplitReplicaName(t->first, &base, &shard_id);
      if (base == map.table && map.FindShard(shard_id) == nullptr) {
        t = tables_.erase(t);
      } else {
        ++t;
      }
    }
    const std::string table = map.table;
    maps_[table] = InstalledMap{std::move(map), std::move(bytes)};
  }
  return Status::OK();
}

uint64_t EdgeServer::MapEpoch(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = maps_.find(table);
  return it == maps_.end() ? 0 : it->second.map.epoch;
}

Status EdgeServer::ApplyUpdateBatch(Slice batch_bytes) {
  ByteReader r(batch_bytes);
  auto schema_for = [this](const std::string& table) -> Result<Schema> {
    std::shared_lock lock(mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) return Status::NotFound("no replica of " + table);
    return it->second->schema;
  };
  VBT_ASSIGN_OR_RETURN(UpdateBatch batch,
                       UpdateBatch::Deserialize(&r, schema_for));
  std::shared_ptr<TableReplica> replica;
  {
    std::shared_lock lock(mu_);
    auto it = tables_.find(batch.table);
    if (it == tables_.end()) {
      return Status::NotFound("no replica of " + batch.table);
    }
    replica = it->second;
  }
  // Replay runs OUTSIDE the directory lock: queries keep traversing
  // latch-free while ops commit one at a time (the tree's OLC protocol
  // restarts any reader a commit overlapped). replay_mu only serializes
  // replayers against each other.
  std::lock_guard replay(replica->replay_mu);
  if (replica->tree->version() != batch.from_version) {
    return Status::InvalidArgument(
        "delta version gap: replica at " +
        std::to_string(replica->tree->version()) + ", batch starts at " +
        std::to_string(batch.from_version) + " (request a full snapshot)");
  }
  for (const UpdateOp& op : batch.ops) {
    std::deque<Signature> feed(op.resigned.begin(), op.resigned.end());
    if (op.kind == UpdateOp::Kind::kInsert) {
      // Store before tree: the tuple must be fetchable by the time the
      // tree publishes the leaf entry pointing at it.
      VBT_RETURN_NOT_OK(replica->store.Put(op.rid, op.tuple));
      VBT_RETURN_NOT_OK(
          replica->tree->ReplayInsert(op.tuple, op.rid, op.material, &feed));
    } else {
      // Tree before store: readers can only reach the doomed tuples
      // through envelopes the delete's commit invalidates.
      VBT_RETURN_NOT_OK(replica->tree->ReplayDeleteRange(op.lo, op.hi, &feed));
      replica->store.RemoveKeyRange(op.lo, op.hi);
    }
    if (!feed.empty()) {
      return Status::Corruption("delta replay diverged: unused signatures");
    }
  }
  if (replica->tree->version() != batch.to_version) {
    return Status::Corruption("delta replay diverged: replica version " +
                              std::to_string(replica->tree->version()) +
                              " != batch to_version " +
                              std::to_string(batch.to_version));
  }
  return Status::OK();
}

uint64_t EdgeServer::TableVersion(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second->tree->version();
}

void EdgeServer::ApplyResponseTamper(QueryResponse* resp) const {
  switch (response_tamper_) {
    case ResponseTamper::kNone:
    case ResponseTamper::kDropShardGroup:
      return;
    case ResponseTamper::kModifyValue:
      if (!resp->rows.empty() && resp->rows[0].values.size() > 1) {
        resp->rows[0].values[1] = Value::Str("__tampered__");
      }
      return;
    case ResponseTamper::kInjectRow:
      if (!resp->rows.empty()) {
        ResultRow fake = resp->rows.back();
        fake.key += 1;
        fake.values[0] = Value::Int(fake.key);
        resp->rows.push_back(std::move(fake));
      }
      return;
    case ResponseTamper::kDropRow:
      if (!resp->rows.empty()) resp->rows.pop_back();
      return;
  }
}

Result<QueryBatchResponse> EdgeServer::ExecuteBatchOnReplica(
    const TableReplica& replica, std::span<const SelectQuery> queries) const {
  const auto start = std::chrono::steady_clock::now();
  VBBatchStats tree_stats;
  VBT_ASSIGN_OR_RETURN(
      std::vector<QueryOutput> outs,
      replica.tree->ExecuteSelectBatch(queries, replica.store.Fetcher(),
                                       &tree_stats));

  // Every answer comes straight from this one batched walk, so the whole
  // group carries the single tree version the walk converged on.
  QueryBatchResponse resp;
  resp.replica_version = tree_stats.read_version;
  resp.responses.reserve(outs.size());
  for (QueryOutput& out : outs) {
    QueryResponse r;
    r.status = std::move(out.status);
    r.replica_version = resp.replica_version;
    if (r.status.ok()) {
      r.rows = std::move(out.rows);
      r.vo = std::move(out.vo);
      ApplyResponseTamper(&r);
      for (const ResultRow& row : r.rows) {
        r.result_bytes += row.SerializedSize();
      }
      r.vo_bytes = r.vo.SerializedSize();
      resp.stats.total_result_bytes += r.result_bytes;
      resp.stats.total_vo_bytes += r.vo_bytes;
    }
    resp.responses.push_back(std::move(r));
  }
  resp.stats.nodes_visited = tree_stats.nodes_visited;
  resp.stats.tuple_fetches = tree_stats.tuple_fetches;
  resp.stats.shared_fetch_hits = tree_stats.shared_fetch_hits;
  resp.stats.olc_restarts = tree_stats.olc_restarts;
  resp.stats.latch_wait_us = tree_stats.latch_wait_us;
  resp.stats.exec_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return resp;
}

Result<ShardedQueryBatchResponse> EdgeServer::HandleQueryBatch(
    const QueryBatch& batch) const {
  for (const SelectQuery& q : batch.queries) {
    if (!q.table.empty() && q.table != batch.table) {
      return Status::InvalidArgument("batch over '" + batch.table +
                                     "' contains a query on '" + q.table +
                                     "'");
    }
  }

  // ONE brief directory-lock acquisition pins the map and every planned
  // shard replica; the groups then execute latch-free. K concurrent
  // batches walk the shard trees simultaneously. The response carries
  // the exact map it was scattered under, so a split landing between two
  // batches can never pair one layout's map with another's replicas.
  std::shared_ptr<const std::vector<uint8_t>> map_bytes;
  std::vector<ShardScatter> plan;
  std::vector<std::shared_ptr<TableReplica>> pinned;
  {
    std::shared_lock lock(mu_);
    auto m = maps_.find(batch.table);
    if (m == maps_.end()) {
      return Status::NotFound("edge server has no partition map for " +
                              batch.table);
    }
    const InstalledMap& installed = m->second;
    map_bytes = installed.bytes;
    plan = BuildScatterPlan(installed.map, batch.queries);
    pinned.reserve(plan.size());
    for (const ShardScatter& group : plan) {
      const std::string shard_name =
          installed.map.shard_name(group.shard_index);
      auto it = tables_.find(shard_name);
      if (it == tables_.end()) {
        return Status::NotFound("shard replica not installed: " + shard_name);
      }
      pinned.push_back(it->second);
    }
  }

  ShardedQueryBatchResponse out;
  out.map_bytes = std::move(map_bytes);
  out.groups.reserve(plan.size());
  for (size_t gi = 0; gi < plan.size(); ++gi) {
    const ShardScatter& group = plan[gi];
    std::vector<SelectQuery> slice_queries;
    slice_queries.reserve(group.slices.size());
    for (const ShardSlice& slice : group.slices) {
      slice_queries.push_back(slice.query);
    }
    VBT_ASSIGN_OR_RETURN(QueryBatchResponse gr,
                         ExecuteBatchOnReplica(*pinned[gi], slice_queries));
    out.stats.Accumulate(gr.stats);
    out.groups.push_back(ShardBatchGroup{group.shard_id, std::move(gr)});
  }
  if (response_tamper_ == ResponseTamper::kDropShardGroup &&
      out.groups.size() > 1) {
    out.groups.pop_back();
  }
  return out;
}

Result<std::vector<uint8_t>> EdgeServer::ExecuteBatchToWire(
    const QueryBatch& batch, uint64_t queue_wait_us,
    BatchExecStats* wire_stats) const {
  VBT_ASSIGN_OR_RETURN(ShardedQueryBatchResponse resp, HandleQueryBatch(batch));
  for (ShardBatchGroup& g : resp.groups) {
    g.resp.stats.queue_wait_us = queue_wait_us;
  }
  resp.stats.queue_wait_us = queue_wait_us;
  ByteWriter w(1 << 14);
  SerializeShardedQueryBatchResponse(resp, &w, wire_stats);
  return w.TakeBuffer();
}

Result<std::vector<uint8_t>> EdgeServer::HandleQueryBatchBytes(
    Slice request) const {
  ByteReader r(request);
  VBT_ASSIGN_OR_RETURN(QueryBatch batch, DeserializeQueryBatch(&r));
  return ExecuteBatchToWire(batch, /*queue_wait_us=*/0, nullptr);
}

Status EdgeServer::TamperValueByKey(const std::string& table, int64_t key,
                                    size_t col, Value v) {
  std::shared_ptr<TableReplica> replica;
  {
    std::shared_lock lock(mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      // Route through the map, like queries: the hacker corrupts whichever
      // shard replica owns the key.
      auto m = maps_.find(table);
      if (m != maps_.end()) {
        it = tables_.find(m->second.map.ShardName(
            table, m->second.map.ShardForKey(key).shard_id));
      }
    }
    if (it == tables_.end()) return Status::NotFound("no replica of " + table);
    replica = it->second;
  }
  return replica->store.TamperByKey(key, col, std::move(v));
}

const VBTree* EdgeServer::tree(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second->tree.get();
}

void SerializeQueryBatchResponse(const QueryBatchResponse& resp, ByteWriter* w,
                                 BatchExecStats* wire_stats) {
  w->PutU8(static_cast<uint8_t>(BatchWire::kV2));
  w->PutU64(resp.replica_version);
  w->PutVarint(resp.responses.size());

  // The response bodies are written into a scratch buffer while interning
  // every signature, so the pool — which a one-pass reader needs first —
  // can precede them on the wire.
  uint64_t vo_wire_bytes = 0;
  SignaturePool pool;
  ByteWriter body(1 << 12);
  for (const QueryResponse& qr : resp.responses) {
    if (!qr.status.ok()) {
      body.PutU8(1);
      SerializeStatus(qr.status, &body);
      continue;
    }
    body.PutU8(0);
    SerializeResultRows(qr.rows, &body);
    const size_t before = body.size();
    qr.vo.SerializePooled(&body, &pool);
    vo_wire_bytes += body.size() - before;
  }
  const size_t pool_start = w->size();
  pool.Serialize(w);
  vo_wire_bytes += w->size() - pool_start;
  w->PutBytes(Slice(body.buffer()));

  w->PutU64(resp.stats.queue_wait_us);
  w->PutU64(resp.stats.exec_us);
  w->PutVarint(resp.stats.nodes_visited);
  w->PutVarint(resp.stats.tuple_fetches);
  w->PutVarint(resp.stats.shared_fetch_hits);
  // Raw totals cannot be recomputed from pooled bytes client-side, and
  // the wire-cost fields are only known post-serialization: ship them.
  w->PutVarint(resp.stats.total_vo_bytes);
  w->PutVarint(vo_wire_bytes);
  w->PutVarint(pool.size());
  w->PutVarint(resp.stats.olc_restarts);
  w->PutVarint(resp.stats.latch_wait_us);
  if (wire_stats != nullptr) {
    *wire_stats = resp.stats;
    wire_stats->vo_wire_bytes = vo_wire_bytes;
    wire_stats->sig_pool_entries = pool.size();
  }
}

Result<QueryBatchResponse> DeserializeQueryBatchResponse(
    ByteReader* r, const Schema& schema,
    const std::vector<SelectQuery>& queries) {
  VBT_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
  if (version != static_cast<uint8_t>(BatchWire::kV2)) {
    return Status::Corruption("unknown shard group wire version " +
                              std::to_string(version));
  }

  QueryBatchResponse resp;
  VBT_ASSIGN_OR_RETURN(resp.replica_version, r->ReadU64());
  VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
  // Positional indexing downstream (Client::QueryBatched pairs
  // resp.responses[i] with its queries[i]): an untrusted edge answering
  // with a different count must be rejected here, not discovered as an
  // out-of-bounds access or silent truncation later.
  if (n != queries.size()) {
    return Status::Corruption("batch response count " + std::to_string(n) +
                              " != query count " +
                              std::to_string(queries.size()));
  }

  const size_t pool_start = r->position();
  VBT_ASSIGN_OR_RETURN(SignaturePool pool, SignaturePool::Deserialize(r));
  uint64_t vo_wire_bytes = r->position() - pool_start;

  resp.responses.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    QueryResponse qr;
    qr.replica_version = resp.replica_version;
    VBT_ASSIGN_OR_RETURN(uint8_t failed, r->ReadU8());
    if (failed != 0) {
      VBT_RETURN_NOT_OK(DeserializeStatus(r, &qr.status));
      if (qr.status.ok()) {
        return Status::Corruption("batch error slot carries an OK status");
      }
      resp.responses.push_back(std::move(qr));
      continue;
    }
    VBT_ASSIGN_OR_RETURN(
        qr.rows, DeserializeResultRows(r, schema, queries[i].projection));
    // Same accounting rule as the serving edge (sum of row payloads,
    // excluding the row-count framing), so the two ends of the BENCH
    // telemetry agree byte-for-byte.
    for (const ResultRow& row : qr.rows) {
      qr.result_bytes += row.SerializedSize();
    }
    size_t start = r->position();
    VBT_ASSIGN_OR_RETURN(qr.vo, VerificationObject::DeserializePooled(r, pool));
    // The pooled (index-referencing) footprint; the raw equivalent
    // arrives in the stats trailer.
    qr.vo_bytes = r->position() - start;
    vo_wire_bytes += qr.vo_bytes;
    resp.stats.total_result_bytes += qr.result_bytes;
    resp.responses.push_back(std::move(qr));
  }

  VBT_ASSIGN_OR_RETURN(resp.stats.queue_wait_us, r->ReadU64());
  VBT_ASSIGN_OR_RETURN(resp.stats.exec_us, r->ReadU64());
  VBT_ASSIGN_OR_RETURN(resp.stats.nodes_visited, r->ReadVarint());
  VBT_ASSIGN_OR_RETURN(resp.stats.tuple_fetches, r->ReadVarint());
  VBT_ASSIGN_OR_RETURN(resp.stats.shared_fetch_hits, r->ReadVarint());
  VBT_ASSIGN_OR_RETURN(resp.stats.total_vo_bytes, r->ReadVarint());
  // The trailer's wire-cost and pool-size claims are consumed but the
  // locally measured values win — an edge cannot skew this telemetry.
  VBT_ASSIGN_OR_RETURN(uint64_t claimed_wire, r->ReadVarint());
  (void)claimed_wire;
  resp.stats.vo_wire_bytes = vo_wire_bytes;
  VBT_ASSIGN_OR_RETURN(uint64_t claimed_pool_entries, r->ReadVarint());
  (void)claimed_pool_entries;
  resp.stats.sig_pool_entries = pool.size();
  VBT_ASSIGN_OR_RETURN(resp.stats.olc_restarts, r->ReadVarint());
  VBT_ASSIGN_OR_RETURN(resp.stats.latch_wait_us, r->ReadVarint());
  // Hand the pool to the client so verification can recover each
  // distinct signature once (the VOs above carry its indices).
  resp.sig_pool = std::make_shared<const SignaturePool>(std::move(pool));
  return resp;
}

void SerializeShardedQueryBatchResponse(const ShardedQueryBatchResponse& resp,
                                        ByteWriter* w,
                                        BatchExecStats* wire_stats) {
  w->PutU8(static_cast<uint8_t>(BatchWire::kSharded));
  w->PutLengthPrefixed(resp.map_bytes == nullptr ? Slice()
                                                 : Slice(*resp.map_bytes));
  w->PutVarint(resp.groups.size());
  BatchExecStats agg;
  agg.queue_wait_us = resp.stats.queue_wait_us;
  for (const ShardBatchGroup& g : resp.groups) {
    w->PutU32(g.shard_id);
    BatchExecStats group_wire;
    SerializeQueryBatchResponse(g.resp, w, &group_wire);
    agg.Accumulate(group_wire);
  }
  if (wire_stats != nullptr) *wire_stats = agg;
}

Result<ShardedBatchDecoded> DeserializeShardedQueryBatchResponse(
    ByteReader* r, const Schema& schema,
    const std::vector<SelectQuery>& queries) {
  VBT_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
  if (version != static_cast<uint8_t>(BatchWire::kSharded)) {
    return Status::Corruption("unknown batch response wire version " +
                              std::to_string(version));
  }
  ShardedBatchDecoded out;
  VBT_ASSIGN_OR_RETURN(Slice map_bytes, r->ReadLengthPrefixed());
  out.map_bytes.assign(map_bytes.data(), map_bytes.data() + map_bytes.size());
  {
    ByteReader map_reader(map_bytes);
    VBT_ASSIGN_OR_RETURN(out.map, PartitionMap::Deserialize(&map_reader));
  }
  // The plan is a pure function of (map, queries): the client derives its
  // completeness expectations from the SAME map the edge claims to have
  // scattered under. If the map is forged, its signature check fails
  // later; if the groups don't match the plan, the edge omitted or
  // invented shard answers — kCorruption either way.
  out.plan = BuildScatterPlan(out.map, queries);
  VBT_ASSIGN_OR_RETURN(uint64_t n_groups, r->ReadCount());
  if (n_groups != out.plan.size()) {
    return Status::Corruption(
        "sharded batch response has " + std::to_string(n_groups) +
        " shard groups, scatter plan dictates " +
        std::to_string(out.plan.size()));
  }
  out.groups.reserve(out.plan.size());
  for (const ShardScatter& planned : out.plan) {
    ShardBatchGroup group;
    VBT_ASSIGN_OR_RETURN(group.shard_id, r->ReadU32());
    if (group.shard_id != planned.shard_id) {
      return Status::Corruption(
          "sharded batch response group for shard " +
          std::to_string(group.shard_id) + ", scatter plan dictates shard " +
          std::to_string(planned.shard_id));
    }
    std::vector<SelectQuery> slice_queries;
    slice_queries.reserve(planned.slices.size());
    for (const ShardSlice& slice : planned.slices) {
      slice_queries.push_back(slice.query);
    }
    VBT_ASSIGN_OR_RETURN(
        group.resp, DeserializeQueryBatchResponse(r, schema, slice_queries));
    out.groups.push_back(std::move(group));
  }
  return out;
}

}  // namespace vbtree
