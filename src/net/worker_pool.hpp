// A persistent, fixed-size fork-join pool for the parallel round engine.
//
// The round engine runs Phase 1 (react_and_send) and Phase 3
// (receive_and_update) as a grid of staging slots (net/simulator.hpp);
// with two or more lanes it hands that grid to this pool.  Those phases
// run up to millions of times per second, so the pool is built for cheap
// repeated dispatch rather than generality:
//
//   * `lanes` execution lanes are fixed at construction: lane 0 is the
//     calling thread, lanes 1..lanes-1 are worker threads parked on a
//     condition variable between dispatches (no per-round thread spawn),
//   * run_tasks(count, fn) splits [0, count) into `lanes` *contiguous*
//     ranges (lane l = [count*l/lanes, count*(l+1)/lanes)) and blocks
//     until every range finished -- the barrier's mutex hand-off is the
//     happens-before edge that lets the caller read worker-written state,
//   * the split is a pure function of (count, lanes), so which lane runs
//     which task is deterministic run to run.
//
// The pool deliberately has no queue: exactly one task is in flight, which
// is all a lockstep round engine can use and keeps dispatch to one lock +
// one broadcast.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dynsub::telemetry {
class TelemetrySink;
}  // namespace dynsub::telemetry

namespace dynsub::net {

class WorkerPool {
 public:
  /// A task body: processes task indices [begin, end) on execution lane
  /// `lane` (0 = the calling thread).  Must tolerate concurrent invocation
  /// on disjoint ranges; the lane index lets bodies use lane-local state
  /// (outbox scratch) with no sharing.
  using TaskFn =
      std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

  /// Spawns lanes - 1 worker threads (lanes >= 1).
  explicit WorkerPool(std::size_t lanes);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t lanes() const { return workers_.size() + 1; }

  /// Runs fn over [0, count) split into lanes() contiguous ranges, lane 0
  /// on the calling thread, and returns only after every range completed.
  /// An empty range makes no call.
  void run_tasks(std::size_t count, const TaskFn& fn);

  /// Attach a TIMING-enabled telemetry sink (or nullptr to detach): each
  /// dispatch then emits a lane-0 kBarrier span covering the time the
  /// calling thread spent waiting on the join after finishing its own
  /// range -- the direct read on lost parallelism from imbalance.  The
  /// caller must have verified timing_enabled(); the pool never touches
  /// the clock when no sink is attached.
  void set_telemetry(telemetry::TelemetrySink* sink) { telemetry_ = sink; }

 private:
  void worker_loop(std::size_t lane, std::size_t lanes);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const TaskFn* task_ = nullptr;  // valid while generation_ is current
  std::size_t task_count_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  telemetry::TelemetrySink* telemetry_ = nullptr;  // not owned
  std::vector<std::thread> workers_;
};

}  // namespace dynsub::net
