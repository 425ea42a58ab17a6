// dynsub::Session -- the one-object facade over a full simulation stack.
//
// Examples, tools, and tests kept re-wiring the same five components by
// hand: build a node factory, size a simulator, construct a workload, drive
// run_workload, then dynamic_cast nodes to query them and call the right
// oracle audit.  A Session bundles Simulator + detector + workload + oracle
// audit into one object built from two spec strings:
//
//   auto s = detect::Session::open({.detector = "robust3hop",
//                                   .scenario = "flash-crowd",
//                                   .quick = true});
//   s->run();                                  // drive the workload
//   s->query(v, detect::EdgeQuery{{0, 1}});    // uniform three-valued query
//   s->list(v, detect::QueryKind::kCycle4);    // canonical subgraph tuples
//   s->audit();                                // problem-appropriate oracle
//   s->summary();                              // the standard RunSummary
//
// Sessions with an empty scenario are *manual*: the caller steps topology
// events itself (the quickstart example).  An explicit workload (e.g. a
// replayed trace) can be injected via the second open() overload -- that is
// how dynsub_run replays and how the differential tests drive one trace
// through every registered detector.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "harness/experiment.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"

namespace dynsub::detect {

struct SessionOptions {
  /// Detector spec in the registry grammar ("triangle", "flood(radius=3)").
  std::string detector = "triangle";
  /// Scenario spec or registered name; empty = manual stepping.
  std::string scenario;
  /// Minimum node count; a scenario needing more wins.  Manual sessions
  /// (no scenario, no injected workload) must set this > 0.
  std::size_t n = 0;
  /// Default seed for stochastic scenarios (a spec's own seed wins).
  std::uint64_t seed = 1;
  /// Shrink scenario default round counts (CI smoke).
  bool quick = false;
  /// Round cap for run() (the workload's finished() usually ends it first).
  std::size_t max_rounds = 1000000;
  /// Keep the emitted event trace during run() (recorded() serves it).
  bool record = false;
  /// Engine knobs.  Every audit works under any of them: the G_{i-1}
  /// audits read Simulator::prev_graph(), which is always available.
  net::SimulatorConfig sim{};
};

/// Barrier-side view of where a session is, for callers that answer
/// queries between rounds (the serve layer's snapshot frontier).  All
/// three fields describe the same instant: the end of round `round`.
struct SessionSnapshot {
  Round round = 0;
  bool settled = true;        // every node consistent
  std::size_t degraded = 0;   // nodes in transport-loss degraded mode
};

class Session {
 public:
  /// Builds detector + scenario + simulator from the specs in `opts`.
  /// Returns std::nullopt (and sets `error` when given) on a bad spec, a
  /// node count over the registry cap, or a manual session with n == 0.
  [[nodiscard]] static std::optional<Session> open(
      SessionOptions opts, std::string* error = nullptr);

  /// Same, but with an explicit workload (a replayed trace, a test's
  /// scripted adversary) instead of `opts.scenario`, which must be empty.
  /// `workload_nodes` is the node count the workload needs; opts.n may
  /// raise it.
  [[nodiscard]] static std::optional<Session> open(
      SessionOptions opts, std::unique_ptr<net::Workload> workload,
      std::size_t workload_nodes, std::string* error = nullptr);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Drives the workload to completion (or max_rounds), then drains; no-op
  /// for manual sessions.  Returns the number of rounds executed.
  std::size_t run();

  /// One workload-driven round: asks the workload for the next event batch
  /// (under the same observation run() builds) and steps it.  Returns
  /// std::nullopt when there is no workload or it has finished -- callers
  /// interleaving work at round barriers (the serve loop) drive this
  /// instead of run() and add their own drain policy.
  std::optional<net::RoundResult> advance();

  /// True when the session has no workload left to drive (manual sessions
  /// are always finished in this sense).
  [[nodiscard]] bool workload_finished() const {
    return workload_ == nullptr || workload_->finished();
  }

  /// The barrier-side snapshot metadata: round / settled / degraded count
  /// as of the end of the last completed round.
  [[nodiscard]] SessionSnapshot snapshot() const;

  /// Manual stepping: one round with the given topology events.
  net::RoundResult step(std::span<const EdgeEvent> events);

  /// Quiet rounds until every node is consistent (or the cap passes).
  std::size_t run_until_stable(std::size_t max_rounds = 10000);

  /// Uniform query at node v (see Detector::query).
  [[nodiscard]] net::Answer query(NodeId v, const Query& q) const;

  /// Uniform listing at node v; std::nullopt while v is inconsistent.
  [[nodiscard]] std::optional<std::vector<SubgraphTuple>> list(
      NodeId v, QueryKind kind) const;

  /// Problem-appropriate oracle audit; nullopt means pass.
  [[nodiscard]] std::optional<std::string> audit() const;

  /// The standard timing-free run summary of the simulation so far.
  [[nodiscard]] harness::RunSummary summary() const;

  [[nodiscard]] const Detector& detector() const { return *detector_; }
  [[nodiscard]] net::Simulator& sim() { return *sim_; }
  [[nodiscard]] const net::Simulator& sim() const { return *sim_; }
  [[nodiscard]] std::size_t nodes() const { return sim_->node_count(); }
  [[nodiscard]] bool settled() const { return sim_->all_consistent(); }
  /// Canonical label of what drives the session: the expanded scenario
  /// spec, or the label given with an injected workload, or "manual".
  [[nodiscard]] const std::string& scenario_spec() const { return label_; }
  /// The event trace captured under SessionOptions::record: one batch per
  /// executed round, covering every recorded round from round 1 -- rounds
  /// executed outside run()/advance()/step() (a run()'s trailing drain,
  /// run_until_stable) are back-filled as empty batches before the next
  /// recorded round, so a run split across several run() calls replays
  /// byte-identically.  Only trailing quiet rounds after the last recorded
  /// round are omitted (they carry no events; a replay's own drain
  /// re-executes them).
  [[nodiscard]] const std::vector<std::vector<EdgeEvent>>& recorded() const {
    return recorded_;
  }

 private:
  Session(SessionOptions opts, std::unique_ptr<Detector> detector,
          std::unique_ptr<net::Workload> workload, std::size_t nodes,
          std::string label);

  /// Records `events` as the batch of the round about to execute, back-
  /// filling empty batches for any unrecorded rounds before it.
  void record_next_round(std::span<const EdgeEvent> events);

  SessionOptions options_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<net::Workload> workload_;
  std::unique_ptr<net::Simulator> sim_;
  std::string label_;
  std::vector<std::vector<EdgeEvent>> recorded_;
};

}  // namespace dynsub::detect
