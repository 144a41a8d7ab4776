#include "edge/propagation/distribution_hub.h"

#include <algorithm>

#include "costmodel/cost_model.h"
#include "edge/central_server.h"
#include "edge/edge_server.h"

namespace vbtree {

namespace {
/// Max concurrent ship operations per flush round.
constexpr size_t kShipConcurrency = 8;
}  // namespace

DistributionHub::DistributionHub(CentralServer* central, Transport* transport,
                                 PropagationOptions options)
    : central_(central), transport_(transport), options_(options) {
  if (options_.auto_start) Start();
}

DistributionHub::~DistributionHub() { Stop(); }

Status DistributionHub::Subscribe(EdgeServer* edge) {
  if (edge == nullptr) return Status::InvalidArgument("null edge server");
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& sub : subscribers_) {
    if (sub->edge->name() == edge->name()) {
      return Status::AlreadyExists("already subscribed: " + edge->name());
    }
  }
  auto sub = std::make_unique<Subscriber>();
  sub->edge = edge;
  if (transport_ != nullptr) {
    sub->snapshot_channel =
        transport_->Channel("central->edge:" + edge->name());
    sub->delta_channel =
        transport_->Channel("central->edge:" + edge->name() + ":delta");
    sub->map_channel =
        transport_->Channel("central->edge:" + edge->name() + ":map");
  }
  subscribers_.push_back(std::move(sub));
  return Status::OK();
}

Status DistributionHub::Unsubscribe(const std::string& edge_name) {
  // Hold the flush latch so no in-flight round still references the
  // subscriber being destroyed.
  std::lock_guard<std::mutex> flush(flush_mu_);
  std::lock_guard<std::mutex> lock(state_mu_);
  for (auto it = subscribers_.begin(); it != subscribers_.end(); ++it) {
    if ((*it)->edge->name() == edge_name) {
      subscribers_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no subscriber named " + edge_name);
}

void DistributionHub::Start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  propagator_ = std::thread([this] { PropagatorLoop(); });
}

void DistributionHub::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (propagator_.joinable()) propagator_.join();
}

void DistributionHub::PropagatorLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(lock, options_.flush_interval,
                        [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    // Errors are counted in stats; the propagator keeps going (a failed
    // subscriber is retried — typically via snapshot catch-up — on the
    // next round).
    (void)FlushOnce();
  }
}

Status DistributionHub::FlushOnce() {
  std::lock_guard<std::mutex> flush(flush_mu_);
  snapshot_cache_.clear();
  Status s = BuildAndRunPlan();
  snapshot_cache_.clear();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.flushes++;
  }
  return s;
}

std::vector<std::string> DistributionHub::DistributedNames() const {
  // Per-shard version streams: every shard of every table is its own
  // snapshot/delta lineage; materialized join views follow, always
  // shipped as whole-object snapshots.
  std::vector<std::string> names = central_->ShardNames();
  std::vector<std::string> views = central_->ViewNames();
  names.insert(names.end(), views.begin(), views.end());
  return names;
}

Status DistributionHub::ShipMaps() {
  std::vector<CentralServer::MapInfo> maps = central_->PartitionMaps();
  if (maps.empty()) return Status::OK();

  struct MapShip {
    Subscriber* sub;
    const CentralServer::MapInfo* info;
  };
  std::vector<MapShip> ships;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const auto& sub : subscribers_) {
      if (sub->lagging) continue;
      for (const CentralServer::MapInfo& info : maps) {
        auto it = sub->applied_maps.find(info.table);
        if (it != sub->applied_maps.end() && it->second >= info.epoch) {
          continue;
        }
        ships.push_back(MapShip{sub.get(), &info});
      }
    }
  }
  Status first_error = Status::OK();
  for (const MapShip& ship : ships) {
    // Byte accounting mirrors RunJob: everything Recorded on a channel
    // is counted in bytes_shipped, delivered or not — the exact
    // channel-sum == bytes_shipped invariant the tests assert.
    if (transport_ != nullptr && ship.sub->map_channel != kInvalidChannel) {
      transport_->Record(ship.sub->map_channel, ship.info->bytes->size());
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_.maps_shipped++;
      stats_.bytes_shipped += ship.info->bytes->size();
    }
    EdgeServer* edge = ship.sub->edge;
    Status s = DeliverVia(
        ship.sub->map_channel, Slice(*ship.info->bytes),
        [edge](Slice payload) { return edge->InstallPartitionMap(payload); });
    std::lock_guard<std::mutex> lock(state_mu_);
    if (s.ok()) {
      ship.sub->applied_maps[ship.info->table] = ship.info->epoch;
    } else {
      if (first_error.ok()) first_error = s;
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_.ship_errors++;
    }
  }
  return first_error;
}

Result<std::shared_ptr<const std::vector<uint8_t>>>
DistributionHub::SnapshotBytes(const std::string& name) {
  auto it = snapshot_cache_.find(name);
  if (it != snapshot_cache_.end()) return it->second;
  VBT_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       central_->ExportTableSnapshot(name));
  auto shared = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  snapshot_cache_[name] = shared;
  return shared;
}

Status DistributionHub::BuildAndRunPlan() {
  // Maps first: shard installs are gated on a consistent layout, so a
  // subscriber must hold the current epoch before any shard payload of
  // that epoch arrives.
  Status map_status = ShipMaps();

  std::vector<std::string> names = DistributedNames();
  std::vector<std::string> view_list = central_->ViewNames();
  std::set<std::string> views(view_list.begin(), view_list.end());

  std::map<std::string, uint64_t> heads;
  for (const std::string& name : names) {
    auto head = central_->VersionOf(name);
    if (head.ok()) heads[name] = *head;
  }

  // Plan under the registry lock: who needs what, and from which version.
  struct Want {
    Subscriber* sub;
    std::string name;
    uint64_t from_version;
    bool snapshot;
    bool catch_up;
  };
  std::vector<Want> wants;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const auto& sub : subscribers_) {
      // Lagging subscribers are out of the plan until Reconnect(): a
      // black-holed channel must not eat a slice of every round's
      // bounded fan-out.
      if (sub->lagging) continue;
      for (const auto& [name, head] : heads) {
        auto applied_it = sub->applied.find(name);
        bool have = applied_it != sub->applied.end();
        uint64_t v = have ? applied_it->second : 0;
        bool force = sub->force_snapshot.count(name) != 0;
        if (have && v == head && !force) continue;
        Want w{sub.get(), name, v, /*snapshot=*/true, /*catch_up=*/false};
        if (have && !force && views.count(name) == 0 &&
            options_.policy != ShipPolicy::kSnapshotOnly) {
          auto covers = central_->DeltaCovers(name, v);
          if (covers.ok() && *covers) {
            w.snapshot = false;
          } else {
            w.catch_up = true;  // fell behind the retained window
          }
        }
        wants.push_back(std::move(w));
      }
    }
  }
  if (wants.empty()) return map_status;

  // Serialize payloads outside the registry lock, once per distinct
  // (table, from_version): a delta batch is shared by every subscriber at
  // the same version, a snapshot by all of them.
  std::map<std::pair<std::string, uint64_t>,
           std::shared_ptr<const std::vector<uint8_t>>>
      delta_cache;
  // (table, from_version) pairs already judged snapshot-cheaper, so the
  // remaining subscribers at the same version skip the discarded
  // serialization.
  std::set<std::pair<std::string, uint64_t>> snapshot_decisions;
  std::vector<ShipJob> jobs;
  jobs.reserve(wants.size());
  Status first_error = map_status;
  for (Want& w : wants) {
    ShipJob job;
    job.sub = w.sub;
    job.name = w.name;
    job.is_catch_up = w.catch_up;
    if (!w.snapshot) {
      auto key = std::make_pair(w.name, w.from_version);
      if (snapshot_decisions.count(key) != 0) w.snapshot = true;
      auto cached = delta_cache.find(key);
      if (!w.snapshot && cached == delta_cache.end()) {
        auto batch =
            central_->DeltaSince(w.name, w.from_version, options_.max_batch_ops);
        if (!batch.ok()) {
          // Raced with a log reset (e.g. key rotation): snapshot instead.
          w.snapshot = true;
          w.catch_up = true;
        } else {
          ByteWriter writer(1 << 12);
          batch->Serialize(&writer);
          auto bytes = std::make_shared<const std::vector<uint8_t>>(
              writer.TakeBuffer());
          if (options_.policy == ShipPolicy::kCostBased) {
            // A delta bigger than the modeled snapshot is a loss: the
            // replica can be rebuilt for less than replaying the churn.
            // SnapshotShapeOf reads under the shard's shared_ptr, so a
            // concurrent SplitShard cannot free the tree mid-read.
            auto shape = central_->SnapshotShapeOf(w.name);
            if (shape.ok()) {
              costmodel::CostParams p;
              p.num_tuples = static_cast<double>(shape->num_tuples);
              p.num_cols = static_cast<double>(shape->num_cols);
              if (static_cast<double>(bytes->size()) >
                  costmodel::SnapshotBytesEstimate(p)) {
                w.snapshot = true;
              }
            }
          }
          if (!w.snapshot) {
            cached = delta_cache.emplace(key, std::move(bytes)).first;
          } else {
            snapshot_decisions.insert(key);
          }
        }
      }
      if (!w.snapshot) {
        job.is_snapshot = false;
        job.bytes = cached->second;
      }
    }
    if (w.snapshot) {
      job.is_snapshot = true;
      job.is_catch_up = w.catch_up;
      auto snap = SnapshotBytes(w.name);
      if (!snap.ok()) {
        if (first_error.ok()) first_error = snap.status();
        continue;
      }
      job.bytes = *snap;
    }
    jobs.push_back(std::move(job));
  }

  // Ship to all stale subscribers concurrently (bounded fan-out).
  std::vector<char> job_ok(jobs.size(), 0);
  size_t workers = std::min(kShipConcurrency, jobs.size());
  if (workers <= 1) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      Status s = RunJob(jobs[i]);
      job_ok[i] = s.ok() ? 1 : 0;
      if (!s.ok() && first_error.ok()) first_error = s;
    }
  } else {
    std::atomic<size_t> next{0};
    std::mutex err_mu;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t t = 0; t < workers; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1)) {
          Status s = RunJob(jobs[i]);
          job_ok[i] = s.ok() ? 1 : 0;
          if (!s.ok()) {
            std::lock_guard<std::mutex> lock(err_mu);
            if (first_error.ok()) first_error = s;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Stall detection: a subscriber whose every ship failed this round is
  // one round closer to lagging; any success resets the count.
  if (options_.lagging_after_rounds > 0) {
    std::map<Subscriber*, bool> progressed;
    for (size_t i = 0; i < jobs.size(); ++i) {
      auto [it, inserted] = progressed.emplace(jobs[i].sub, job_ok[i] != 0);
      if (!inserted && job_ok[i] != 0) it->second = true;
    }
    size_t newly_lagging = 0;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      for (auto& [sub, ok] : progressed) {
        if (ok) {
          sub->stall_rounds = 0;
          continue;
        }
        sub->stall_rounds++;
        if (!sub->lagging &&
            sub->stall_rounds >= options_.lagging_after_rounds) {
          sub->lagging = true;
          newly_lagging++;
        }
      }
    }
    if (newly_lagging > 0) {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_.lagging_marked += newly_lagging;
    }
  }

  // GC: drop log entries every subscriber has applied. Lagging
  // subscribers don't pin the log — they recover via snapshot on
  // Reconnect() anyway.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    bool any_active = false;
    for (const auto& sub : subscribers_) {
      if (!sub->lagging) any_active = true;
    }
    if (any_active) {
      for (const auto& [name, head] : heads) {
        if (views.count(name) != 0) continue;
        uint64_t min_applied = ~uint64_t{0};
        for (const auto& sub : subscribers_) {
          if (sub->lagging) continue;
          auto it = sub->applied.find(name);
          min_applied = std::min(min_applied,
                                 it == sub->applied.end() ? 0 : it->second);
        }
        if (min_applied > 0) (void)central_->TruncateLog(name, min_applied);
      }
    }
  }
  return first_error;
}

Status DistributionHub::DeliverVia(channel_id_t channel, Slice payload,
                                   const Transport::DeliverFn& fn) {
  if (transport_ == nullptr) return fn(payload);
  return transport_->Deliver(channel, payload, fn);
}

Status DistributionHub::RunJob(const ShipJob& job) {
  auto account = [&](channel_id_t channel, size_t bytes, bool snapshot,
                     bool catch_up) {
    if (transport_ != nullptr && channel != kInvalidChannel) {
      transport_->Record(channel, bytes);
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_shipped += bytes;
    if (snapshot) {
      stats_.snapshots_shipped++;
      if (catch_up) stats_.catch_up_snapshots++;
    } else {
      stats_.deltas_shipped++;
    }
  };

  // Deliveries route through the transport's Deliver gate so a fault
  // injector can drop/duplicate/reorder/truncate them; byte accounting
  // above is unconditional either way.
  EdgeServer* edge = job.sub->edge;
  Status applied;
  if (job.is_snapshot) {
    account(job.sub->snapshot_channel, job.bytes->size(), true,
            job.is_catch_up);
    applied = DeliverVia(
        job.sub->snapshot_channel, Slice(*job.bytes),
        [edge](Slice payload) { return edge->InstallSnapshot(payload); });
  } else {
    account(job.sub->delta_channel, job.bytes->size(), false, false);
    applied = DeliverVia(
        job.sub->delta_channel, Slice(*job.bytes),
        [edge](Slice payload) { return edge->ApplyUpdateBatch(payload); });
    if (!applied.ok()) {
      // Version gap or corrupted replica state: self-heal with a full
      // snapshot (serialized fresh — this path is rare).
      auto snap = central_->ExportTableSnapshot(job.name);
      if (snap.ok()) {
        account(job.sub->snapshot_channel, snap->size(), true, true);
        auto shared =
            std::make_shared<const std::vector<uint8_t>>(std::move(*snap));
        applied = DeliverVia(
            job.sub->snapshot_channel, Slice(*shared),
            [edge, shared](Slice payload) {
              return edge->InstallSnapshot(payload);
            });
      } else {
        applied = snap.status();
      }
    }
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  if (applied.ok()) {
    job.sub->applied[job.name] = job.sub->edge->TableVersion(job.name);
    job.sub->force_snapshot.erase(job.name);
  } else {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.ship_errors++;
  }
  return applied;
}

bool DistributionHub::Converged() {
  std::vector<std::string> names = DistributedNames();
  std::vector<CentralServer::MapInfo> maps = central_->PartitionMaps();
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const std::string& name : names) {
    auto head = central_->VersionOf(name);
    if (!head.ok()) continue;
    for (const auto& sub : subscribers_) {
      if (sub->lagging) continue;  // can't converge; mustn't wedge SyncAll
      auto it = sub->applied.find(name);
      if (it == sub->applied.end() || it->second != *head) return false;
      if (sub->force_snapshot.count(name) != 0) return false;
    }
  }
  for (const CentralServer::MapInfo& info : maps) {
    for (const auto& sub : subscribers_) {
      if (sub->lagging) continue;
      auto it = sub->applied_maps.find(info.table);
      if (it == sub->applied_maps.end() || it->second < info.epoch) {
        return false;
      }
    }
  }
  return true;
}

Status DistributionHub::SyncAll(size_t max_rounds) {
  for (size_t round = 0; round < max_rounds; ++round) {
    VBT_RETURN_NOT_OK(FlushOnce());
    if (Converged()) return Status::OK();
  }
  return Status::Internal(
      "propagation did not converge (central server still being updated?)");
}

Status DistributionHub::ForceSnapshot(const std::string& edge_name) {
  std::vector<std::string> names = DistributedNames();
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& sub : subscribers_) {
    if (sub->edge->name() != edge_name) continue;
    sub->force_snapshot.insert(names.begin(), names.end());
    return Status::OK();
  }
  return Status::NotFound("no subscriber named " + edge_name);
}

Status DistributionHub::Reconnect(const std::string& edge_name) {
  std::vector<std::string> names = DistributedNames();
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const auto& sub : subscribers_) {
      if (sub->edge->name() != edge_name) continue;
      sub->lagging = false;
      sub->stall_rounds = 0;
      // The log window it missed may be truncated (lagging subscribers
      // don't pin GC) and its replica state is suspect — replay from
      // snapshot, never from deltas.
      sub->force_snapshot.insert(names.begin(), names.end());
      found = true;
      break;
    }
  }
  if (!found) return Status::NotFound("no subscriber named " + edge_name);
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.reconnects++;
  return Status::OK();
}

std::vector<std::string> DistributionHub::LaggingSubscribers() {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<std::string> names;
  for (const auto& sub : subscribers_) {
    if (sub->lagging) names.push_back(sub->edge->name());
  }
  return names;
}

std::map<std::string, uint64_t> DistributionHub::SubscriberVersions(
    const std::string& edge_name) {
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& sub : subscribers_) {
    if (sub->edge->name() == edge_name) return sub->applied;
  }
  return {};
}

DistributionHub::HubStats DistributionHub::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace vbtree
