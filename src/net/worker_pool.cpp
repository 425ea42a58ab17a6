#include "net/worker_pool.hpp"

#include <chrono>

#include "common/check.hpp"
#include "telemetry/sink.hpp"

namespace dynsub::net {

namespace {

/// Lane l's range over [0, count): deterministic contiguous split with
/// sizes differing by at most one.
constexpr std::size_t lane_bound(std::size_t count, std::size_t lanes,
                                 std::size_t l) {
  return count * l / lanes;
}

}  // namespace

WorkerPool::WorkerPool(std::size_t lanes) {
  DYNSUB_CHECK(lanes >= 1);
  workers_.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    // lanes rides in by value: a worker must not read workers_.size()
    // while the constructor is still appending threads to it.
    workers_.emplace_back([this, lane, lanes] { worker_loop(lane, lanes); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void WorkerPool::run_tasks(std::size_t count, const TaskFn& fn) {
  const std::size_t lanes = workers_.size() + 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &fn;
    task_count_ = count;
    pending_ = workers_.size();
    ++generation_;
  }
  work_ready_.notify_all();
  // Lane 0 runs on the calling thread -- the pool never idles the caller.
  const std::size_t end0 = lane_bound(count, lanes, 1);
  if (end0 > 0) fn(0, 0, end0);
  if (telemetry_ != nullptr) {
    // Span the join wait: how long lane 0 sat idle after finishing its
    // own range is exactly the parallelism lost to imbalance.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point w0 = Clock::now();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_done_.wait(lock, [this] { return pending_ == 0; });
      task_ = nullptr;
    }
    const Clock::time_point w1 = Clock::now();
    telemetry::Span span;
    span.phase = telemetry::Phase::kBarrier;
    span.lane = 0;
    span.round = 0;  // the pool is round-agnostic
    span.start_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            w0.time_since_epoch())
            .count());
    span.dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(w1 - w0).count());
    telemetry_->on_span(span);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return pending_ == 0; });
  task_ = nullptr;
}

void WorkerPool::worker_loop(std::size_t lane, std::size_t lanes) {
  std::uint64_t seen = 0;
  for (;;) {
    const TaskFn* task = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock,
                       [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
      count = task_count_;
    }
    const std::size_t begin = lane_bound(count, lanes, lane);
    const std::size_t end = lane_bound(count, lanes, lane + 1);
    if (begin < end) (*task)(lane, begin, end);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
      if (pending_ == 0) work_done_.notify_one();
    }
  }
}

}  // namespace dynsub::net
