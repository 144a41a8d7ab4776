#include "edge/client.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/random.h"
#include "edge/query_service/edge_director.h"
#include "edge/query_service/lazy_auditor.h"
#include "query/query_serde.h"

namespace vbtree {

namespace {
uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

void Client::RegisterTable(const std::string& table, Schema schema,
                           HashAlgorithm algo, int modulus_bits) {
  tables_[table] = TableMeta{std::move(schema), algo, modulus_bits};
}

void Client::BeginPinnedRead() {
  pinned_read_ = true;
  pinned_epochs_.clear();
}

void Client::EndPinnedRead() {
  pinned_read_ = false;
  pinned_epochs_.clear();
}

Client::EdgeChannels* Client::ResolveChannels(EdgeServer* edge,
                                              Transport* net) {
  if (net == nullptr) return nullptr;
  EdgeChannels* channels = &channels_[edge->name()];
  if (channels->transport != net) {
    channels->transport = net;
    channels->up = net->Channel("client->edge:" + edge->name());
    channels->down = net->Channel("edge:" + edge->name() + "->client");
  }
  return channels;
}

Result<const PartitionMap*> Client::VerifyMapBytes(const std::string& table,
                                                   const TableMeta& meta,
                                                   Slice bytes, uint64_t now) {
  auto cached = maps_.find(table);
  if (cached != maps_.end() && cached->second.bytes.size() == bytes.size() &&
      std::equal(bytes.data(), bytes.data() + bytes.size(),
                 cached->second.bytes.begin())) {
    // Byte-identical to a map this client already authenticated: the
    // signature check would recompute the same digest over the same
    // bytes, so skipping it is sound (and keeps the per-query map cost
    // an allocation-free compare on the steady state).
    if (pinned_read_) {
      auto [pin, inserted] =
          pinned_epochs_.try_emplace(table, cached->second.epoch);
      if (!inserted && pin->second != cached->second.epoch) {
        return Status::VerificationFailure(
            "pinned read: partition map of '" + table + "' moved from epoch " +
            std::to_string(pin->second) + " to " +
            std::to_string(cached->second.epoch) + " mid-read");
      }
    }
    return &cached->second.map;
  }
  ByteReader r{bytes};
  VBT_ASSIGN_OR_RETURN(PartitionMap map, PartitionMap::Deserialize(&r));
  if (map.table != table || map.db_name != db_name_) {
    return Status::VerificationFailure(
        "partition map is bound to " + map.db_name + "." + map.table +
        ", not " + db_name_ + "." + table);
  }
  uint64_t& floor = map_floor_[table];
  if (map.epoch < floor) {
    return Status::VerificationFailure(
        "stale partition map: epoch " + std::to_string(map.epoch) +
        " below this client's floor " + std::to_string(floor) +
        " (layout replayed from before a split or key rotation?)");
  }
  if (pinned_read_) {
    // Mix rejection happens before the signature work (the epoch is
    // enough to decide), but a *new* pin records only after the map
    // authenticates below — a forged map must not seed the pin set.
    auto pin = pinned_epochs_.find(table);
    if (pin != pinned_epochs_.end() && pin->second != map.epoch) {
      return Status::VerificationFailure(
          "pinned read: partition map of '" + table + "' moved from epoch " +
          std::to_string(pin->second) + " to " + std::to_string(map.epoch) +
          " mid-read");
    }
  }
  // Key freshness applies to the map exactly as to tree digests: a map
  // signed under an expired key version is rejected here.
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<Recoverer> rec,
                       keys_->RecovererFor(map.key_version, now));
  VBT_RETURN_NOT_OK(map.Verify(rec.get(), meta.algo));
  floor = std::max(floor, map.epoch);
  if (pinned_read_) pinned_epochs_.try_emplace(table, map.epoch);
  VerifiedMap& slot = maps_[table];
  slot.epoch = map.epoch;
  slot.bytes.assign(bytes.data(), bytes.data() + bytes.size());
  slot.map = std::move(map);
  return &slot.map;
}

void Client::MergeVerifiedPart(Verified* merged, Verified part,
                               bool first_part) {
  if (first_part) {
    *merged = std::move(part);
    return;
  }
  // Shard parts arrive in ascending shard (= key) order; adjacent parts
  // must meet at the map's signed boundaries without overlap. Each VO
  // already proves its rows lie inside the clamped (disjoint) ranges, so
  // this is defense in depth against a merge bug, not a new trust step.
  if (!merged->rows.empty() && !part.rows.empty() &&
      merged->rows.back().key >= part.rows.front().key) {
    Status overlap = Status::VerificationFailure(
        "cross-shard results overlap at key " +
        std::to_string(part.rows.front().key));
    if (merged->verification.ok()) merged->verification = overlap;
  }
  merged->rows.insert(merged->rows.end(),
                      std::make_move_iterator(part.rows.begin()),
                      std::make_move_iterator(part.rows.end()));
  if (merged->verification.ok() && !part.verification.ok()) {
    merged->verification = part.verification;
  }
  merged->replica_version =
      std::min(merged->replica_version, part.replica_version);
  merged->stale_replica = merged->stale_replica || part.stale_replica;
  merged->pending_audit = merged->pending_audit || part.pending_audit;
  merged->shards_touched += part.shards_touched;
  merged->request_bytes += part.request_bytes;
  merged->result_bytes += part.result_bytes;
  merged->vo_bytes += part.vo_bytes;
  merged->vo_digests += part.vo_digests;
  merged->counters.Add(part.counters);
}

Result<Client::Verified> Client::Query(EdgeServer* edge,
                                       const SelectQuery& query, uint64_t now,
                                       Transport* net) {
  QueryBatch batch;
  batch.table = query.table;
  batch.queries.push_back(query);
  VBT_ASSIGN_OR_RETURN(
      VerifiedBatch vb,
      RunBatch(
          edge,
          [edge](std::vector<uint8_t> request) {
            return edge->HandleQueryBatchBytes(Slice(request));
          },
          batch, now, /*verifier=*/nullptr, net));
  // The batch's signature pools serve this one query alone, so the whole
  // response's VO wire cost (pools plus pooled skeletons) and crypto work
  // (pool recovery included) are this query's.
  Verified out = std::move(vb.results[0]);
  out.request_bytes = vb.request_bytes;
  out.vo_bytes = vb.stats.vo_wire_bytes;
  out.counters = vb.crypto;
  return out;
}

Client::GroupOutcome Client::VerifyBatchGroup(
    const std::string& schema_table, const std::string& digest_table,
    const Verifier::TopBinding* binding, const TableMeta& meta,
    std::span<const SelectQuery> queries, QueryBatchResponse& resp,
    uint64_t now, BatchVerifier* verifier) {
  GroupOutcome out;
  out.results.resize(resp.responses.size());

  // --- key freshness (§3.4), then fan out authentication ---
  // All VOs of a group normally carry one key version (single tree
  // state); resolve per distinct version anyway so a malformed response
  // cannot alias a stale key onto a fresh one.
  DigestSchema ds(db_name_, digest_table, meta.schema, meta.algo,
                  meta.modulus_bits);
  std::map<uint32_t, Result<std::shared_ptr<Recoverer>>> recoverers;
  std::vector<BatchVerifier::Job> jobs;
  std::vector<size_t> job_index;  // jobs[j] authenticates results[job_index[j]]
  jobs.reserve(resp.responses.size());
  for (size_t i = 0; i < resp.responses.size(); ++i) {
    const QueryResponse& qr = resp.responses[i];
    Verified& v = out.results[i];
    v.replica_version = resp.replica_version;
    v.result_bytes = qr.result_bytes;
    v.vo_bytes = qr.vo_bytes;
    if (!qr.status.ok()) {
      // The edge reported this query failed (bad predicate, execution
      // error). There are no rows/VO to authenticate; surface the status
      // as-is — like a transport error it is unauthenticated, but a lying
      // edge gains nothing beyond withholding an answer.
      v.verification = qr.status;
      continue;
    }
    v.vo_digests = qr.vo.DigestCount();
    uint32_t kv = qr.vo.key_version;
    auto rec_it = recoverers.find(kv);
    if (rec_it == recoverers.end()) {
      rec_it = recoverers.emplace(kv, keys_->RecovererFor(kv, now)).first;
    }
    if (!rec_it->second.ok()) {
      v.verification = rec_it->second.status();
      continue;
    }
    jobs.push_back(BatchVerifier::Job{&queries[i], &qr.rows, &qr.vo, binding});
    job_index.push_back(i);
  }

  std::vector<BatchVerifier::Outcome> outcomes;
  if (!jobs.empty()) {
    // The jobs all share a key version in the non-adversarial case; a
    // mixed-version batch degrades to per-version groups. One VerifyAll
    // call per group so the batch's signature pool is recovered once per
    // group, not once per job.
    BatchVerifier inline_verifier(BatchVerifier::Options{0});
    BatchVerifier* bv = verifier != nullptr ? verifier : &inline_verifier;
    std::map<uint32_t, std::vector<size_t>> by_version;
    for (size_t j = 0; j < jobs.size(); ++j) {
      by_version[resp.responses[job_index[j]].vo.key_version].push_back(j);
    }
    outcomes.resize(jobs.size());
    // The whole-pool recovery phase runs for the dominant key version
    // only: a (necessarily adversarial) mixed-version batch would
    // otherwise re-recover all P pool entries once per version group.
    // Minority groups still verify correctly through the cache /
    // per-reference path.
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
      ctx.cache = digest_cache_.get();
      ctx.cache_domain = kv;
      ctx.pool_counters = &out.crypto;
      std::vector<BatchVerifier::Outcome> group_out =
          bv->VerifyAll(ds, rec, group_jobs, &ctx);
      for (size_t g = 0; g < group.size(); ++g) {
        outcomes[group[g]] = std::move(group_out[g]);
      }
    }
    for (size_t j = 0; j < jobs.size(); ++j) {
      Verified& v = out.results[job_index[j]];
      v.verification = std::move(outcomes[j].verification);
      v.counters = outcomes[j].counters;
      out.crypto.Add(outcomes[j].counters);
    }
  }

  for (size_t i = 0; i < resp.responses.size(); ++i) {
    out.results[i].rows = std::move(resp.responses[i].rows);
  }

  // --- replica freshness: one version served the whole group, and only
  // authenticated answers may move the watermark (same rule as Query) ---
  for (const Verified& v : out.results) {
    if (v.verification.ok()) {
      out.any_verified = true;
      break;
    }
  }
  if (out.any_verified) {
    uint64_t& watermark = freshness_[schema_table];
    out.stale_replica = resp.replica_version < watermark;
    watermark = std::max(watermark, resp.replica_version);
    for (Verified& v : out.results) {
      if (v.verification.ok()) v.stale_replica = out.stale_replica;
    }
  }
  return out;
}

Client::GroupOutcome Client::DeferBatchGroup(
    const std::string& schema_table, const std::string& digest_table,
    const Verifier::TopBinding* binding, const TableMeta& meta,
    std::span<const SelectQuery> queries, QueryBatchResponse& resp,
    uint64_t now, TrustMode mode, const std::string& source) {
  GroupOutcome out;
  out.results.resize(resp.responses.size());

  // Freshness under lazy trust: the replica version is an *unaudited*
  // claim until the ticket clears, so the staleness baseline is the
  // auditor's audited watermark, and this answer must not move any
  // watermark — a lying edge could otherwise poison the monotonic-read
  // signal through answers whose audit later fails.
  const bool stale =
      resp.replica_version < auditor_->audited_watermark(schema_table);
  out.stale_replica = stale;

  for (size_t i = 0; i < resp.responses.size(); ++i) {
    const QueryResponse& qr = resp.responses[i];
    Verified& v = out.results[i];
    v.replica_version = resp.replica_version;
    v.result_bytes = qr.result_bytes;
    v.vo_bytes = qr.vo_bytes;
    if (!qr.status.ok()) {
      // Edge-reported failure: surfaced unauthenticated exactly as in
      // certified mode; there is nothing to audit.
      v.verification = qr.status;
      continue;
    }
    v.vo_digests = qr.vo.DigestCount();
    // The caller gets a copy; the ticket keeps the delivered originals
    // so the audit checks precisely what the application consumed.
    v.rows = qr.rows;
    v.pending_audit = true;
    v.stale_replica = stale;
    out.deferred++;
  }

  AuditTicket ticket;
  ticket.schema_table = schema_table;
  if (digest_table != schema_table) ticket.digest_table = digest_table;
  if (binding != nullptr) {
    ticket.has_binding = true;
    ticket.bind_lo = binding->lo;
    ticket.bind_hi = binding->hi;
  }
  ticket.schema = meta.schema;
  ticket.algo = meta.algo;
  ticket.modulus_bits = meta.modulus_bits;
  ticket.queries.assign(queries.begin(), queries.end());
  ticket.resp = std::move(resp);
  ticket.now = now;
  ticket.source = source;
  ticket.issued_at = std::chrono::steady_clock::now();
  // Blocks when the auditor's bounded queue is full: backpressure rides
  // the issuing path, the one place a slow auditor can slow anything.
  auditor_->Submit(std::move(ticket), mode);
  return out;
}

Result<Client::VerifiedBatch> Client::QueryBatched(QueryService* service,
                                                   const QueryBatch& batch,
                                                   uint64_t now,
                                                   BatchVerifier* verifier,
                                                   Transport* net) {
  return RunBatch(
      service->edge(),
      [service](std::vector<uint8_t> request) {
        return service->SubmitBatchBytes(std::move(request)).get();
      },
      batch, now, verifier, net);
}

Result<Client::VerifiedBatch> Client::RunBatch(EdgeServer* edge,
                                               const Dispatch& dispatch,
                                               const QueryBatch& batch,
                                               uint64_t now,
                                               BatchVerifier* verifier,
                                               Transport* net) {
  auto meta_it = tables_.find(batch.table);
  if (meta_it == tables_.end()) {
    return Status::InvalidArgument("table not registered with client: " +
                                   batch.table);
  }
  const TableMeta& meta = meta_it->second;
  if (batch.queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  const TrustMode mode = batch.trust_mode;
  if (mode != TrustMode::kCertified && auditor_ == nullptr) {
    return Status::InvalidArgument(
        "lazy trust mode requires an attached auditor (Client::set_auditor)");
  }

  // Normalize locally: the response rows are encoded against the
  // normalized projections, and the verifier needs the same view.
  QueryBatch b = batch;
  for (SelectQuery& q : b.queries) {
    q.table = batch.table;
    q.NormalizeProjection();
  }

  EdgeChannels* channels = ResolveChannels(edge, net);

  // --- request over the wire ---
  ByteWriter req(1 << 10);
  SerializeQueryBatch(b, &req);
  const size_t request_bytes = req.size();
  std::vector<uint8_t> resp_bytes;
  if (channels != nullptr) {
    // Both legs route through the transport's Deliver gate, so a fault
    // injector can drop/duplicate/truncate the RPC: a lost request
    // surfaces as an IOError (the failover overload's timeout signal), a
    // truncated response as a parse Corruption. Recording stays
    // unconditional — bytes are counted delivered or not.
    net->Record(channels->up, request_bytes);
    // A fault-injecting transport may hold a message for reordering and
    // run the delivery fn after this frame has returned (the sender sees
    // OK with an empty cell). The fns therefore capture only heap cells
    // by value, and writes/reads go through the cell's mutex — a late
    // release lands in an abandoned cell instead of a dead stack frame.
    struct RpcCell {
      std::mutex mu;
      std::vector<uint8_t> bytes;
    };
    auto served = std::make_shared<RpcCell>();
    VBT_RETURN_NOT_OK(net->Deliver(
        channels->up, Slice(req.buffer()),
        [dispatch, served](Slice payload) -> Status {
          VBT_ASSIGN_OR_RETURN(
              std::vector<uint8_t> out,
              dispatch(std::vector<uint8_t>(payload.data(),
                                            payload.data() + payload.size())));
          std::lock_guard<std::mutex> g(served->mu);
          served->bytes = std::move(out);
          return Status::OK();
        }));
    {
      std::lock_guard<std::mutex> g(served->mu);
      resp_bytes = std::move(served->bytes);
    }
    net->Record(channels->down, resp_bytes.size());
    auto delivered = std::make_shared<RpcCell>();
    VBT_RETURN_NOT_OK(net->Deliver(channels->down, Slice(resp_bytes),
                                   [delivered](Slice payload) {
                                     std::lock_guard<std::mutex> g(
                                         delivered->mu);
                                     delivered->bytes.assign(
                                         payload.data(),
                                         payload.data() + payload.size());
                                     return Status::OK();
                                   }));
    {
      std::lock_guard<std::mutex> g(delivered->mu);
      resp_bytes = std::move(delivered->bytes);
    }
  } else {
    VBT_ASSIGN_OR_RETURN(resp_bytes, dispatch(req.TakeBuffer()));
  }
  if (resp_bytes.empty()) {
    // An empty cell means the wire swallowed a leg (e.g. a reordered
    // message still held by the injector) — a network failure, not
    // evidence of tampering, so it must strike as a timeout rather than
    // a verification failure.
    return Status::IOError("empty batch response");
  }

  VerifiedBatch out;
  out.request_bytes = request_bytes;

  // --- scatter-gather response ---
  ByteReader r((Slice(resp_bytes)));
  VBT_ASSIGN_OR_RETURN(
      ShardedBatchDecoded decoded,
      DeserializeShardedQueryBatchResponse(&r, meta.schema, b.queries));

  // Authenticate the map the edge claims to have scattered under; the
  // decode above already validated the groups against the plan this map
  // dictates.
  const auto map_verify_start = std::chrono::steady_clock::now();
  auto map_or =
      VerifyMapBytes(batch.table, meta, Slice(decoded.map_bytes), now);
  out.map_verify_us = MicrosSince(map_verify_start);
  if (!map_or.ok()) {
    // Deliver the (unverifiable) rows with the failure on every slot:
    // the caller sees its data but nothing authenticates.
    out.results.resize(b.queries.size());
    for (size_t g = 0; g < decoded.groups.size(); ++g) {
      const std::vector<ShardSlice>& slices = decoded.plan[g].slices;
      auto& responses = decoded.groups[g].resp.responses;
      for (size_t s = 0; s < slices.size() && s < responses.size(); ++s) {
        Verified& v = out.results[slices[s].query_index];
        v.verification = map_or.status();
        v.rows.insert(v.rows.end(),
                      std::make_move_iterator(responses[s].rows.begin()),
                      std::make_move_iterator(responses[s].rows.end()));
      }
    }
    return out;
  }
  const PartitionMap& map = **map_or;
  out.map_epoch = map.epoch;

  out.results.resize(b.queries.size());
  std::vector<bool> started(b.queries.size(), false);
  out.replica_version = ~uint64_t{0};
  const auto verify_start = std::chrono::steady_clock::now();
  for (size_t g = 0; g < decoded.groups.size(); ++g) {
    const ShardScatter& planned = decoded.plan[g];
    const std::string shard = map.shard_name(planned.shard_index);
    std::vector<SelectQuery> slice_queries;
    slice_queries.reserve(planned.slices.size());
    for (const ShardSlice& slice : planned.slices) {
      slice_queries.push_back(slice.query);
    }
    QueryBatchResponse& resp = decoded.groups[g].resp;
    out.stats.Accumulate(resp.stats);
    // Captured before DeferBatchGroup moves the response into its ticket.
    const uint64_t group_version = resp.replica_version;
    const ShardEntry& entry = map.shards[planned.shard_index];
    const bool lineage = !entry.lineage.empty();
    const std::string& digest_table = lineage ? entry.lineage : shard;
    Verifier::TopBinding binding;
    if (lineage) binding = Verifier::TopBinding{shard, entry.lo, entry.hi};
    GroupOutcome gv =
        mode == TrustMode::kCertified
            ? VerifyBatchGroup(shard, digest_table, lineage ? &binding : nullptr,
                               meta, slice_queries, resp, now, verifier)
            : DeferBatchGroup(shard, digest_table, lineage ? &binding : nullptr,
                              meta, slice_queries, resp, now, mode,
                              edge->name());
    out.crypto.Add(gv.crypto);
    out.deferred_queries += gv.deferred;
    out.stale_replica = out.stale_replica || gv.stale_replica;
    out.replica_version = std::min(out.replica_version, group_version);
    out.shard_query_counts.emplace_back(planned.shard_id,
                                        planned.slices.size());
    // Stitch: groups ascend by shard index, so per-query parts land in
    // key order.
    for (size_t s = 0; s < planned.slices.size(); ++s) {
      const size_t qi = planned.slices[s].query_index;
      MergeVerifiedPart(&out.results[qi], std::move(gv.results[s]),
                        !started[qi]);
      started[qi] = true;
    }
  }
  out.verify_us = MicrosSince(verify_start);
  if (out.replica_version == ~uint64_t{0}) out.replica_version = 0;
  for (size_t qi = 0; qi < out.results.size(); ++qi) {
    out.results[qi].map_epoch = map.epoch;
    if (!started[qi]) {
      // The scatter plan assigned this query to no shard: its range is
      // empty. Nothing was executed or verified — report that instead of
      // a default-OK slot that would count as authenticated.
      out.results[qi].verification =
          Status::InvalidArgument("empty key range");
    }
  }
  return out;
}

Result<Client::VerifiedBatch> Client::QueryBatched(
    EdgeDirector* director, const QueryBatch& batch, uint64_t now,
    const FailoverPolicy& policy, BatchVerifier* verifier, Transport* net) {
  if (director == nullptr) {
    return Status::InvalidArgument("null edge director");
  }

  // Fingerprint of the normalized batch: dedupe key for failed attempts
  // (and the per-batch jitter stream, so concurrent clients with the
  // same seed don't back off in lockstep).
  uint64_t fp = 0xcbf29ce484222325ULL;
  {
    QueryBatch normalized = batch;
    for (SelectQuery& q : normalized.queries) {
      q.table = batch.table;
      q.NormalizeProjection();
    }
    ByteWriter w(256);
    SerializeQueryBatch(normalized, &w);
    for (uint8_t byte : w.buffer()) {
      fp ^= byte;
      fp *= 0x100000001B3ULL;
    }
  }
  Rng jitter(policy.jitter_seed ^ fp);

  const auto t_start = std::chrono::steady_clock::now();
  // Failed-attempt dedupe: (edge, replica version it answered with — 0
  // when it never answered). An edge in here deterministically failed
  // this exact batch, so it is skipped while any other candidate
  // remains; the batch never re-runs against the same (edge, version).
  std::set<std::pair<std::string, uint64_t>> failed;
  auto edge_failed = [&](const std::string& name) {
    for (const auto& [n, v] : failed) {
      if (n == name) return true;
    }
    return false;
  };

  VerifiedBatch stale_best;
  bool has_stale = false;
  Status last_error = Status::IOError("no edge candidates");
  uint64_t attempts = 0;
  uint64_t failovers = 0;
  std::string prev_edge;

  while (attempts < policy.max_attempts) {
    if (policy.deadline_us > 0 && MicrosSince(t_start) >= policy.deadline_us) {
      last_error = Status::IOError("failover deadline exceeded");
      break;
    }
    QueryService* target = nullptr;
    for (QueryService* c : director->RouteCandidates()) {
      if (!edge_failed(c->edge()->name())) {
        target = c;
        break;
      }
    }
    if (target == nullptr) break;  // every candidate already failed this batch
    const std::string name = target->edge()->name();

    if (attempts > 0) {
      // Jittered exponential backoff before each retry: base * factor^k
      // capped, then drawn from [base/2, 3*base/2).
      double base = static_cast<double>(policy.backoff_initial_us);
      for (uint64_t k = 1; k < attempts; ++k) base *= policy.backoff_factor;
      uint64_t base_us = std::min(static_cast<uint64_t>(base),
                                  policy.backoff_max_us);
      if (base_us > 0) {
        uint64_t sleep_us = base_us / 2 + jitter.Uniform(base_us);
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      }
    }
    attempts++;
    if (!prev_edge.empty() && prev_edge != name) failovers++;
    prev_edge = name;

    const auto t0 = std::chrono::steady_clock::now();
    auto res = QueryBatched(target, batch, now, verifier, net);
    const uint64_t attempt_us = MicrosSince(t0);

    if (!res.ok()) {
      last_error = res.status();
      // A corrupt response is the edge's fault (tampering or truncation
      // survived transport); anything else reads as the RPC failing.
      if (res.status().code() == StatusCode::kCorruption ||
          res.status().code() == StatusCode::kVerificationFailure) {
        director->ReportVerifyFailure(name);
      } else {
        director->ReportTimeout(name);
      }
      failed.emplace(name, 0);
      continue;
    }

    VerifiedBatch vb = std::move(*res);
    bool verify_failed = false;
    for (const Verified& v : vb.results) {
      if (v.verification.code() == StatusCode::kVerificationFailure) {
        verify_failed = true;
        break;
      }
    }
    if (verify_failed) {
      // The edge produced a proof that doesn't check out: strongest
      // possible strike, and the whole batch retries elsewhere — rows
      // from a caught-lying edge are never delivered, not even the
      // slots that individually verified.
      director->ReportVerifyFailure(name);
      failed.emplace(name, vb.replica_version);
      last_error = Status::VerificationFailure(
          "batch failed verification at edge " + name);
      continue;
    }

    // Authenticated answer. A blown per-attempt budget still strikes the
    // edge (slowness drifts it toward quarantine) but verified data is
    // never discarded over timing.
    if (policy.attempt_budget_us > 0 && attempt_us > policy.attempt_budget_us) {
      director->ReportTimeout(name);
    } else {
      director->ReportSuccess(name);
    }

    if (policy.min_fresh_version > 0 &&
        vb.replica_version < policy.min_fresh_version) {
      // Verified but below the freshness floor: keep the freshest such
      // answer as the degraded fallback and keep hunting.
      const uint64_t answered_version = vb.replica_version;
      if (!has_stale || answered_version > stale_best.replica_version) {
        stale_best = std::move(vb);
        stale_best.served_by = name;
      }
      has_stale = true;
      failed.emplace(name, answered_version);
      last_error = Status::NotFound("no fresh-enough healthy edge");
      continue;
    }

    vb.attempts = attempts;
    vb.failovers = failovers;
    vb.served_by = name;
    return vb;
  }

  // Degraded paths — always explicit, never a silent downgrade.
  if (has_stale) {
    stale_best.attempts = attempts;
    stale_best.failovers = failovers;
    stale_best.degraded = true;
    stale_best.degraded_mode = "stale_floor";
    stale_best.stale_replica = true;
    for (Verified& v : stale_best.results) {
      if (v.verification.ok()) v.stale_replica = true;
    }
    return stale_best;
  }
  if (policy.central_fallback != nullptr) {
    auto res = QueryBatched(policy.central_fallback, batch, now, verifier, net);
    if (res.ok()) {
      res->attempts = attempts + 1;
      res->failovers = failovers + (attempts > 0 ? 1 : 0);
      res->degraded = true;
      res->degraded_mode = "central";
      res->served_by = policy.central_fallback->edge() != nullptr
                           ? policy.central_fallback->edge()->name()
                           : "central";
      return res;
    }
    last_error = res.status();
  }
  return last_error;
}

}  // namespace vbtree
