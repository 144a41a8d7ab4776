#ifndef VBTREE_EDGE_QUERY_SERVICE_QUERY_SERVICE_H_
#define VBTREE_EDGE_QUERY_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>

#include "common/thread_pool.h"
#include "edge/edge_server.h"

namespace vbtree {

struct QueryServiceOptions {
  /// Worker threads executing queries against the edge replica. Each
  /// in-flight execution pins one epoch slot on the tree it reads
  /// (olc::EpochReclaimer::kSlots per tree); pools sized past that
  /// ceiling still run correctly but excess readers spin-yield waiting
  /// for a pin slot (observable via EpochReclaimer::slot_waits()).
  size_t num_workers = 4;
  /// Bounded submission queue: at most this many requests waiting (in
  /// addition to the ones being executed).
  size_t queue_capacity = 1024;
  /// Queue-full behavior: throttle submitters or shed load with
  /// kResourceExhausted.
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Modeled per-request blocking stall (microseconds), charged inside
  /// the worker before execution. Emulates the backend I/O an edge
  /// request blocks on in deployment (replica page reads from local
  /// flash, NIC writeback) — the component a thread pool overlaps — so
  /// worker-scaling behavior is observable independent of host core
  /// count; production configs and the repository benchmark leave it 0.
  uint64_t modeled_io_stall_us = 0;
};

/// Thread-pool-backed front end for one EdgeServer (the "absorb heavy
/// client traffic" role of Fig. 2): client requests enter a bounded
/// submission queue and are executed concurrently by a fixed worker pool.
///
/// Concurrency: the query path is latch-free. A worker briefly takes the
/// EdgeServer's directory lock (shared) only to pin the target replica,
/// then traverses the VB-tree optimistically (vb_tree.h §OLC) — K
/// workers walk the same tree concurrently, restarting the rare read a
/// writer overlapped instead of queuing behind a tree latch. The
/// DistributionHub's propagator takes the same directory lock
/// exclusively only for the pointer swap of a snapshot install; delta
/// replay holds no directory lock at all (per-replica replay_mu). There
/// is no lock ordering to maintain between the subsystems because no
/// path holds two of these locks at once.
///
/// Every submission is stamped on entry; per-request queue-wait and
/// execution time feed the service-level stats (and, for batches, the
/// response's BatchExecStats) — including OLC restart and latch-wait
/// telemetry — giving the closed-loop bench its contention picture.
class QueryService {
 public:
  struct Stats {
    uint64_t batches = 0;        ///< batches completed
    uint64_t batched_queries = 0;///< queries inside those batches
    /// Batched queries whose request carried a non-certified TrustMode
    /// (the client will answer first and audit asynchronously).
    /// Execution is identical — this only sizes the lazy traffic share.
    uint64_t lazy_queries = 0;
    uint64_t rejected = 0;       ///< submissions shed by backpressure
    uint64_t errors = 0;         ///< executions returning non-OK
    uint64_t queue_wait_us_total = 0;
    uint64_t queue_wait_us_max = 0;
    uint64_t exec_us_total = 0;
    /// Raw (self-contained) VO bytes — what the batches would have
    /// shipped without signature interning.
    uint64_t vo_bytes_total = 0;
    /// VO bytes actually shipped (signature pools + pooled skeletons).
    uint64_t vo_wire_bytes_total = 0;
    uint64_t result_bytes_total = 0;
    /// Optimistic-read restarts across all batch executions (0 when no
    /// writer ever overlapped a traversal).
    uint64_t olc_restarts = 0;
    /// Microseconds spent yielding between restarts or blocking on the
    /// tree's pessimistic fallback latch, summed over batches.
    uint64_t latch_wait_us_total = 0;
  };

  explicit QueryService(EdgeServer* edge, QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  EdgeServer* edge() const { return edge_; }

  /// Enqueues a serialized QueryBatch; a worker parses it, executes it
  /// with shared traversals as one unit, and resolves the future with the
  /// serialized response, whose stats carry the measured queue wait.
  /// Under kReject a full queue resolves the future immediately with
  /// kResourceExhausted (the request never reaches a worker).
  std::future<Result<std::vector<uint8_t>>> SubmitBatchBytes(
      std::vector<uint8_t> request);

  /// Stops accepting submissions, drains accepted work, joins workers.
  void Shutdown();

  size_t queue_depth() const { return pool_.queue_depth(); }
  size_t num_workers() const { return pool_.num_threads(); }
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  void ApplyStall() const;
  /// Records one completed batch into stats_. `batch_stats` is null for
  /// a batch that failed; otherwise it contributes the byte, cache and
  /// contention telemetry.
  void Account(uint64_t queue_wait_us, uint64_t exec_us, size_t queries,
               const BatchExecStats* batch_stats, uint64_t lazy_queries);

  EdgeServer* edge_;
  QueryServiceOptions options_;
  ThreadPool pool_;
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_QUERY_SERVICE_QUERY_SERVICE_H_
