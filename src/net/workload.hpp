// Workload interface: where topology changes come from.
//
// The paper's adversary chooses an arbitrary set of edge insertions and
// deletions at the beginning of every round, and may be *adaptive*: the
// lower-bound constructions repeatedly "wait for the algorithm to stabilize"
// before the next change.  WorkloadObservation therefore exposes the current
// graph and whether every node was consistent at the end of the previous
// round -- and nothing else (the adversary cannot read node internals).
#pragma once

#include <span>
#include <vector>

#include "common/edge.hpp"
#include "common/types.hpp"
#include "oracle/timestamped_graph.hpp"

namespace dynsub::net {

struct WorkloadObservation {
  const oracle::TimestampedGraph& graph;  // G_{i-1}, about to become G_i
  Round next_round = 0;
  bool all_consistent = true;  // at the end of round i-1
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Events for the next round (may be empty, e.g. while waiting for the
  /// algorithm to stabilize).
  [[nodiscard]] virtual std::vector<EdgeEvent> next_round(
      const WorkloadObservation& obs) = 0;

  /// True when the workload has issued everything it intends to.
  [[nodiscard]] virtual bool finished() const = 0;
};

/// Replays a fixed per-round script; rounds beyond the script are empty.
class ScriptedWorkload final : public Workload {
 public:
  /// rounds[i] is the batch for round i+1.
  explicit ScriptedWorkload(std::vector<std::vector<EdgeEvent>> rounds)
      : rounds_(std::move(rounds)) {}

  [[nodiscard]] std::vector<EdgeEvent> next_round(
      const WorkloadObservation& obs) override {
    (void)obs;
    if (cursor_ >= rounds_.size()) return {};
    return rounds_[cursor_++];
  }

  [[nodiscard]] bool finished() const override {
    return cursor_ >= rounds_.size();
  }

 private:
  std::vector<std::vector<EdgeEvent>> rounds_;
  std::size_t cursor_ = 0;
};

class Simulator;

/// The most quiet rounds a run adds after its workload finishes, so the
/// final metrics describe a settled network: run_workload's default,
/// Session::run()'s drain and the serve loop's settle all stop here.
inline constexpr std::size_t kDrainCap = 1000;

/// Drives `sim` with `workload` until the workload reports finished or
/// `max_rounds` workload-driven rounds elapse (the cutoff path for
/// workloads that never report finished()), then runs a trailing drain of
/// up to `drain_cap` quiet rounds so the final metrics describe a settled
/// network.  The drain applies after the max_rounds cutoff too, so the
/// return value can exceed max_rounds by at most drain_cap; a drain_cap of
/// 0 caps the run at exactly max_rounds.  Returns the number of rounds
/// executed.
std::size_t run_workload(Simulator& sim, Workload& workload,
                         std::size_t max_rounds,
                         std::size_t drain_cap = kDrainCap);

}  // namespace dynsub::net
