#ifndef VBTREE_EDGE_SHARD_WRITE_DOMAIN_H_
#define VBTREE_EDGE_SHARD_WRITE_DOMAIN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"

namespace vbtree {

/// The per-shard write pipeline of the central server (DESIGN.md §10):
/// one bounded FIFO queue drained by one dedicated worker thread that
/// owns all mutation of the shard's rows, VB-tree and update log. Every
/// shard having its own domain is what turns the central server's write
/// path from "one trusted writer" into "one trusted writer *per shard*"
/// — signing (the dominant insert cost) proceeds in parallel across
/// shards while each shard's op stream stays strictly ordered, which is
/// exactly the property delta propagation needs (a shard's UpdateLog is
/// its domain's execution order, verbatim).
///
/// Ordering contract:
///  - Within a domain: ops apply in enqueue order (single worker, FIFO).
///  - Across domains: no global order. A cross-shard operation (e.g. a
///    DeleteRange spanning shards) fences by enqueueing one clamped op
///    per overlapping domain and waiting on all futures — each shard's
///    log records the op at that shard's own sequence point.
///
/// Lifecycle:
///  - Pause()/Resume(): temporary quiescence for operations that must
///    observe (or re-sign) the shard at a clean op boundary — key
///    rotation, bulk load, view materialization. Pause blocks until the
///    in-flight op completes; queued ops are retained and run on Resume.
///  - Seal(): final. Refuses new ops, drains the queue, joins the
///    worker. Used by SplitShard (the shard is being retired — writers
///    that race the seal get kResourceExhausted from Enqueue and re-resolve
///    the owning shard from the post-split layout) and at shutdown.
///
/// The queue is bounded: Enqueue blocks while full, so a slow signer
/// backpressures the producers instead of growing memory without bound.
/// Telemetry (ops, queue depth peak/p99, recent insert keys) feeds the
/// contention-driven auto-split policy and the write-mix bench.
class ShardWriteDomain {
 public:
  /// One queued mutation. Runs on the domain worker; its Status resolves
  /// the future Enqueue returned. Ops must be self-contained (they may
  /// take the shard's own latches but never a lock an *enqueueing*
  /// thread can hold while waiting on a domain future — that is the
  /// deadlock-freedom rule for Pause/Seal/Drain).
  using Op = std::function<Status()>;

  /// Enqueue blocks (backpressure) at this depth.
  static constexpr size_t kQueueCapacity = 1024;
  /// Ring of recent insert keys kept for the split-point heuristic
  /// ("split where the traffic is": the policy thread splits a hot shard
  /// at the median of its recent insert keys, not at the median of its
  /// stored keys).
  static constexpr size_t kRecentKeyWindow = 256;

  struct Stats {
    uint64_t ops_enqueued = 0;
    uint64_t ops_applied = 0;
    size_t queue_depth = 0;       ///< now
    size_t queue_depth_peak = 0;  ///< max depth ever observed at enqueue
    size_t queue_depth_p99 = 0;   ///< p99 of depth-at-enqueue samples
    bool sealed = false;
  };

  explicit ShardWriteDomain(std::string name);
  ~ShardWriteDomain();  ///< Seals (drains + joins) if not already sealed.

  ShardWriteDomain(const ShardWriteDomain&) = delete;
  ShardWriteDomain& operator=(const ShardWriteDomain&) = delete;

  const std::string& name() const { return name_; }

  /// Appends an op; the future resolves with the op's Status once the
  /// worker has applied it. Blocks while the queue is full. Returns
  /// kResourceExhausted once sealed (the caller re-resolves the owning shard:
  /// a sealed domain means the shard is being split away).
  Result<std::future<Status>> Enqueue(Op op);

  /// Enqueue + wait: the synchronous convenience used by callers that
  /// need the op's result before proceeding.
  Status Execute(Op op);

  /// Blocks until the worker is idle; queued ops are held until
  /// Resume(). Idempotent. No-op after Seal.
  void Pause();
  void Resume();

  /// Blocks until the queue is empty and the worker is idle (Resume
  /// first if paused, or Drain waits forever).
  void Drain();

  /// Final: refuse new ops, drain everything already queued, join the
  /// worker. Idempotent; safe to call concurrently with Enqueue.
  void Seal();

  /// Telemetry hooks (called by the op bodies / read by the policy
  /// thread and stats surface).
  void RecordInsertKey(int64_t key);
  /// The retained recent-insert-key window, unordered.
  std::vector<int64_t> RecentInsertKeys() const;

  /// Lock-free: the policy thread polls this per window to compute
  /// per-shard traffic deltas.
  uint64_t ops_applied() const {
    return ops_applied_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  struct Pending {
    Op op;
    std::promise<Status> done;
  };

  void WorkerLoop();

  const std::string name_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::deque<Pending> queue_;
  bool sealed_ = false;
  bool paused_ = false;
  bool busy_ = false;  ///< worker is applying a popped op

  uint64_t ops_enqueued_ = 0;
  std::atomic<uint64_t> ops_applied_{0};
  size_t depth_peak_ = 0;
  /// Histogram of queue depth observed at each enqueue (depth clamped to
  /// kQueueCapacity); p99 is computed by walking it. Fixed-size so the
  /// hot path is an array increment under mu_ it already holds.
  std::vector<uint64_t> depth_hist_;

  std::vector<int64_t> recent_keys_;  ///< ring buffer
  size_t recent_pos_ = 0;

  std::thread worker_;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_SHARD_WRITE_DOMAIN_H_
