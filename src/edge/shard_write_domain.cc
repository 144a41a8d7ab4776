#include "edge/shard_write_domain.h"

#include <algorithm>
#include <utility>

namespace vbtree {

ShardWriteDomain::ShardWriteDomain(std::string name)
    : name_(std::move(name)),
      depth_hist_(kQueueCapacity + 1, 0),
      worker_([this] { WorkerLoop(); }) {
  recent_keys_.reserve(kRecentKeyWindow);
}

ShardWriteDomain::~ShardWriteDomain() { Seal(); }

Result<std::future<Status>> ShardWriteDomain::Enqueue(Op op) {
  std::unique_lock lock(mu_);
  not_full_.wait(lock, [&] {
    return sealed_ || queue_.size() < kQueueCapacity;
  });
  if (sealed_) {
    return Status::ResourceExhausted("write domain " + name_ +
                                     " is sealed (shard retiring)");
  }
  Pending p;
  p.op = std::move(op);
  std::future<Status> fut = p.done.get_future();
  queue_.push_back(std::move(p));
  ops_enqueued_++;
  const size_t depth = queue_.size();
  depth_peak_ = std::max(depth_peak_, depth);
  depth_hist_[std::min(depth, kQueueCapacity)]++;
  not_empty_.notify_one();
  return fut;
}

Status ShardWriteDomain::Execute(Op op) {
  VBT_ASSIGN_OR_RETURN(std::future<Status> done, Enqueue(std::move(op)));
  return done.get();
}

void ShardWriteDomain::Pause() {
  std::unique_lock lock(mu_);
  if (sealed_) return;
  paused_ = true;
  idle_.wait(lock, [&] { return !busy_; });
}

void ShardWriteDomain::Resume() {
  std::lock_guard lock(mu_);
  paused_ = false;
  not_empty_.notify_one();
}

void ShardWriteDomain::Drain() {
  std::unique_lock lock(mu_);
  idle_.wait(lock, [&] { return queue_.empty() && !busy_; });
}

void ShardWriteDomain::Seal() {
  {
    std::unique_lock lock(mu_);
    sealed_ = true;
    paused_ = false;  // a sealed domain must drain
    not_empty_.notify_all();
    not_full_.notify_all();
    idle_.wait(lock, [&] { return queue_.empty() && !busy_; });
  }
  // Exactly one caller joins; Seal is called under external serialization
  // (SplitShard holds dml_mu_; the destructor is the last owner).
  if (worker_.joinable()) worker_.join();
}

void ShardWriteDomain::RecordInsertKey(int64_t key) {
  std::lock_guard lock(mu_);
  if (recent_keys_.size() < kRecentKeyWindow) {
    recent_keys_.push_back(key);
  } else {
    recent_keys_[recent_pos_] = key;
  }
  recent_pos_ = (recent_pos_ + 1) % kRecentKeyWindow;
}

std::vector<int64_t> ShardWriteDomain::RecentInsertKeys() const {
  std::lock_guard lock(mu_);
  return recent_keys_;
}

ShardWriteDomain::Stats ShardWriteDomain::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.ops_enqueued = ops_enqueued_;
  s.ops_applied = ops_applied_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  s.queue_depth_peak = depth_peak_;
  s.sealed = sealed_;
  // p99 of depth-at-enqueue: smallest depth covering 99% of samples.
  const uint64_t total = ops_enqueued_;
  if (total > 0) {
    const uint64_t target = total - total / 100;  // ceil(0.99 * total)
    uint64_t seen = 0;
    for (size_t d = 0; d < depth_hist_.size(); ++d) {
      seen += depth_hist_[d];
      if (seen >= target) {
        s.queue_depth_p99 = d;
        break;
      }
    }
  }
  return s;
}

void ShardWriteDomain::WorkerLoop() {
  std::unique_lock lock(mu_);
  for (;;) {
    not_empty_.wait(lock, [&] {
      return (!queue_.empty() && !paused_) || sealed_;
    });
    if (queue_.empty()) {
      if (sealed_) {
        idle_.notify_all();
        return;
      }
      continue;
    }
    if (paused_ && !sealed_) continue;
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    not_full_.notify_one();
    lock.unlock();
    Status s = p.op();
    // Count before resolving the future: a caller that saw its Execute
    // return must also see the op in ops_applied (the policy thread and
    // tests read the counter right after synchronous DML).
    ops_applied_.fetch_add(1, std::memory_order_relaxed);
    p.done.set_value(std::move(s));
    lock.lock();
    busy_ = false;
    if (queue_.empty() || paused_) idle_.notify_all();
  }
}

}  // namespace vbtree
