#ifndef VBTREE_EDGE_PROPAGATION_DISTRIBUTION_HUB_H_
#define VBTREE_EDGE_PROPAGATION_DISTRIBUTION_HUB_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "edge/propagation/transport.h"
#include "edge/propagation/update_log.h"

namespace vbtree {

class CentralServer;
class EdgeServer;

/// How the hub ships pending state to a subscriber that is behind.
enum class ShipPolicy {
  /// Delta whenever the retained log covers the subscriber's version.
  kDeltaPreferred,
  /// Always re-ship the full snapshot (the naive §3.4 broadcast).
  kSnapshotOnly,
  /// Delta, unless its serialized size exceeds the cost-model estimate
  /// of the snapshot (e.g. a delta replaying more churn than the table
  /// holds) — then a snapshot is cheaper.
  kCostBased,
};

struct PropagationOptions {
  /// Maximum ops shipped per delta batch; a subscriber further behind
  /// converges over several batches (or a snapshot, by policy).
  size_t max_batch_ops = 512;
  /// Background propagator wakeup period.
  std::chrono::milliseconds flush_interval{5};
  ShipPolicy policy = ShipPolicy::kCostBased;
  /// Start the background propagator thread from the constructor.
  bool auto_start = true;
  /// A subscriber that makes no apply progress across this many
  /// consecutive flush rounds (every ship to it failed — e.g. its
  /// channel black-holed) is marked lagging: it is dropped from ship
  /// plans, excluded from Converged(), and stops pinning log GC, so one
  /// dead edge cannot wedge the propagator. Reconnect() re-admits it
  /// with full snapshots. 0 disables the detector.
  size_t lagging_after_rounds = 10;
};

/// The asynchronous update-propagation subsystem (§3.4 "propagate the
/// changes periodically", scaled to a fleet): owns a subscriber registry
/// of edge servers and a background propagator thread that, every
/// `flush_interval`, batches the pending ops of every table *shard* from
/// the central server's versioned UpdateLogs and ships them to all
/// stale subscribers concurrently over the Transport. Shards are
/// independent version streams: each has its own snapshot/delta lineage,
/// so an update to one shard never re-ships its table's siblings.
///
/// Partition maps ship first: at the start of every round, any
/// subscriber whose installed map epoch trails the central's receives
/// the table's signed PartitionMap before any shard payload — edges
/// apply shard updates only under a consistent layout (installs of
/// shards outside the installed map are rejected edge-side).
///
/// Version gating makes delivery idempotent and self-healing: each
/// subscriber tracks the replica version it has applied per table; a
/// batch applies only if it extends exactly that version, and any gap —
/// a subscriber that fell behind the retained log window, a fresh
/// subscriber, a key rotation, a corrupted replica — is caught up with a
/// full snapshot instead.
///
/// Thread-safe. DML at the central server, hub flushes, and client
/// queries against the edges may all proceed concurrently.
///
/// Lifetime: the hub holds raw pointers to the central server and every
/// subscribed edge, and its background thread uses them until Stop().
/// Construct the hub after (i.e. destroy it before) the central server,
/// the transport, and all subscribers — or call Stop()/Unsubscribe
/// explicitly first.
class DistributionHub {
 public:
  DistributionHub(CentralServer* central, Transport* transport,
                  PropagationOptions options = {});
  ~DistributionHub();

  DistributionHub(const DistributionHub&) = delete;
  DistributionHub& operator=(const DistributionHub&) = delete;

  /// Registers an edge server; every distributed table/view is shipped
  /// to it (snapshot first, deltas after) starting with the next flush.
  Status Subscribe(EdgeServer* edge);

  /// Removes a subscriber (its replicas stay as they are — and go stale).
  /// Blocks until any in-flight flush no longer references it.
  Status Unsubscribe(const std::string& edge_name);

  void Start();
  void Stop();
  bool running() const { return running_.load(); }

  /// Runs one synchronous propagation round (the same code path the
  /// background thread executes). Returns the first ship error, if any.
  Status FlushOnce();

  /// Flushes until every subscriber has every table at the central
  /// version (a barrier for tests/examples). With concurrent central DML
  /// this chases the head; gives up after `max_rounds`.
  Status SyncAll(size_t max_rounds = 10000);

  /// True when every subscriber is at the central version everywhere.
  bool Converged();

  /// Marks every replica of `edge_name` dirty so the next flush re-ships
  /// full snapshots — the recovery path for a corrupted/tampered edge.
  Status ForceSnapshot(const std::string& edge_name);

  /// Re-admits a lagging subscriber ("the edge came back"): clears the
  /// lagging mark and forces full snapshots for all its replicas, since
  /// the log window it missed may already be truncated.
  Status Reconnect(const std::string& edge_name);

  /// Names of subscribers currently marked lagging.
  std::vector<std::string> LaggingSubscribers();

  /// Per-table versions a subscriber has applied (empty if unknown edge).
  std::map<std::string, uint64_t> SubscriberVersions(
      const std::string& edge_name);

  struct HubStats {
    uint64_t flushes = 0;
    uint64_t deltas_shipped = 0;
    uint64_t snapshots_shipped = 0;
    /// Snapshots forced by a version gap / log truncation / apply error.
    uint64_t catch_up_snapshots = 0;
    /// Signed partition maps shipped (epoch bumps and fresh subscribers).
    uint64_t maps_shipped = 0;
    uint64_t bytes_shipped = 0;
    uint64_t ship_errors = 0;
    /// Subscribers marked lagging (no apply progress for
    /// `lagging_after_rounds` consecutive rounds).
    uint64_t lagging_marked = 0;
    /// Lagging subscribers re-admitted via Reconnect().
    uint64_t reconnects = 0;
  };
  HubStats stats() const;

 private:
  struct Subscriber {
    EdgeServer* edge = nullptr;
    /// Versions this subscriber has applied, per shard/view name. A
    /// missing entry means "never shipped" → snapshot.
    std::map<std::string, uint64_t> applied;
    /// Partition-map epochs this subscriber has installed, per table.
    std::map<std::string, uint64_t> applied_maps;
    /// Names whose next ship must be a snapshot regardless of versions.
    std::set<std::string> force_snapshot;
    channel_id_t snapshot_channel = kInvalidChannel;
    channel_id_t delta_channel = kInvalidChannel;
    channel_id_t map_channel = kInvalidChannel;
    /// Consecutive flush rounds in which every ship to this subscriber
    /// failed to advance anything (black-holed channel, dead edge).
    size_t stall_rounds = 0;
    /// Lagging subscribers are skipped by ship plans, Converged() and
    /// log GC until Reconnect() re-admits them.
    bool lagging = false;
  };

  struct ShipJob {
    Subscriber* sub = nullptr;
    std::string name;
    bool is_snapshot = false;
    bool is_catch_up = false;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
  };

  void PropagatorLoop();
  Status BuildAndRunPlan();
  /// Routes a payload through the transport's Deliver gate (the fault
  /// surface); with no transport the receiver is invoked directly.
  Status DeliverVia(channel_id_t channel, Slice payload,
                    const Transport::DeliverFn& fn);
  /// Ships every stale subscriber the current signed partition maps —
  /// called at the top of each round, before any shard payload.
  Status ShipMaps();
  Status RunJob(const ShipJob& job);
  /// Serializes (and caches for this flush) the snapshot of `name`.
  Result<std::shared_ptr<const std::vector<uint8_t>>> SnapshotBytes(
      const std::string& name);
  std::vector<std::string> DistributedNames() const;

  CentralServer* central_;
  Transport* transport_;  // may be null (no accounting)
  PropagationOptions options_;

  /// Serializes flush rounds (background thread vs FlushOnce/SyncAll).
  std::mutex flush_mu_;
  /// Guards the subscriber registry and applied-version maps.
  std::mutex state_mu_;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;

  /// Per-flush snapshot cache (valid only while flush_mu_ is held).
  std::map<std::string, std::shared_ptr<const std::vector<uint8_t>>>
      snapshot_cache_;

  std::thread propagator_;
  std::atomic<bool> running_{false};
  std::condition_variable stop_cv_;
  std::mutex stop_mu_;
  bool stop_requested_ = false;

  mutable std::mutex stats_mu_;
  HubStats stats_;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_PROPAGATION_DISTRIBUTION_HUB_H_
