#include "edge/query_service/query_service.h"

#include <thread>

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

QueryService::QueryService(EdgeServer* edge, QueryServiceOptions options)
    : edge_(edge),
      options_(options),
      pool_(ThreadPoolOptions{options.num_workers, options.queue_capacity,
                              options.overflow}) {}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() { pool_.Shutdown(); }

void QueryService::ApplyStall() const {
  if (options_.modeled_io_stall_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.modeled_io_stall_us));
  }
}

void QueryService::Account(uint64_t queue_wait_us, uint64_t exec_us,
                           size_t queries, const BatchExecStats* batch_stats,
                           uint64_t lazy_queries) {
  std::lock_guard lock(stats_mu_);
  stats_.batches++;
  stats_.batched_queries += queries;
  stats_.lazy_queries += lazy_queries;
  if (batch_stats == nullptr) stats_.errors++;
  stats_.queue_wait_us_total += queue_wait_us;
  stats_.queue_wait_us_max = std::max(stats_.queue_wait_us_max, queue_wait_us);
  stats_.exec_us_total += exec_us;
  if (batch_stats != nullptr) {
    stats_.vo_bytes_total += batch_stats->total_vo_bytes;
    stats_.result_bytes_total += batch_stats->total_result_bytes;
    stats_.vo_wire_bytes_total += batch_stats->vo_wire_bytes;
    stats_.vo_cache_hits += batch_stats->vo_cache_hits;
    stats_.olc_restarts += batch_stats->olc_restarts;
    stats_.latch_wait_us_total += batch_stats->latch_wait_us;
  }
}

std::future<Result<std::vector<uint8_t>>> QueryService::SubmitBatchBytes(
    std::vector<uint8_t> request) {
  auto promise =
      std::make_shared<std::promise<Result<std::vector<uint8_t>>>>();
  std::future<Result<std::vector<uint8_t>>> future = promise->get_future();
  const Clock::time_point enqueued = Clock::now();
  Status submitted = pool_.Submit([this, promise, enqueued,
                                   req = std::move(request)]() mutable {
    const uint64_t wait_us = MicrosSince(enqueued);
    ApplyStall();
    const Clock::time_point exec_start = Clock::now();
    // Parse here (on the worker) so deserialization cost also comes off
    // the client's critical path; serialize with the measured wait.
    auto run = [&]() -> Result<std::vector<uint8_t>> {
      ByteReader r((Slice(req)));
      VBT_ASSIGN_OR_RETURN(QueryBatch batch, DeserializeQueryBatch(&r));
      BatchExecStats wire_stats;
      VBT_ASSIGN_OR_RETURN(
          std::vector<uint8_t> out,
          edge_->ExecuteBatchToWire(batch, wait_us, &wire_stats));
      // wire_stats.exec_us is the edge-measured execution time, summed
      // over shard groups — serialization stays out of the exec metric.
      Account(wait_us, wire_stats.exec_us, batch.queries.size(), &wire_stats,
              batch.trust_mode != TrustMode::kCertified
                  ? batch.queries.size()
                  : 0);
      return out;
    };
    Result<std::vector<uint8_t>> out = run();
    if (!out.ok()) {
      Account(wait_us, MicrosSince(exec_start), 0, /*batch_stats=*/nullptr,
              /*lazy_queries=*/0);
    }
    promise->set_value(std::move(out));
  });
  if (!submitted.ok()) {
    std::lock_guard lock(stats_mu_);
    stats_.rejected++;
    promise->set_value(Result<std::vector<uint8_t>>(submitted));
  }
  return future;
}

QueryService::Stats QueryService::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace vbtree
