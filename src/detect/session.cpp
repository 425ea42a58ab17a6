#include "detect/session.hpp"

#include <algorithm>
#include <utility>

#include "detect/registry.hpp"
#include "scenario/registry.hpp"

namespace dynsub::detect {
namespace {

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

/// One node-cap gate for every way a Session can be sized (scenario,
/// injected workload, manual n) -- same constant as the scenario builders
/// and dynsub_run, so the gates cannot drift apart.
bool check_cap(std::size_t nodes, std::string* error) {
  if (nodes <= scenario::kMaxScenarioNodes) return true;
  return fail(error, "session wants " + std::to_string(nodes) +
                         " nodes; refusing above " +
                         std::to_string(scenario::kMaxScenarioNodes));
}

}  // namespace

Session::Session(SessionOptions opts, std::unique_ptr<Detector> detector,
                 std::unique_ptr<net::Workload> workload, std::size_t nodes,
                 std::string label)
    : options_(std::move(opts)),
      detector_(std::move(detector)),
      workload_(std::move(workload)),
      sim_(std::make_unique<net::Simulator>(nodes, detector_->factory(),
                                            options_.sim)),
      label_(std::move(label)) {}

std::optional<Session> Session::open(SessionOptions opts,
                                     std::string* error) {
  auto detector = build_detector(opts.detector, error);
  if (!detector) return std::nullopt;

  std::unique_ptr<net::Workload> workload;
  std::size_t nodes = opts.n;
  std::string label = "manual";
  if (!opts.scenario.empty()) {
    scenario::ScenarioOptions sopts{opts.n, opts.seed, opts.quick};
    auto built = scenario::build_scenario(opts.scenario, sopts, error);
    if (!built) return std::nullopt;
    nodes = std::max(opts.n, built->nodes);
    workload = std::move(built->workload);
    label = std::move(built->spec);
  } else if (nodes == 0) {
    fail(error, "manual sessions (no scenario) need SessionOptions::n > 0");
    return std::nullopt;
  }
  if (!check_cap(nodes, error)) return std::nullopt;
  return Session(std::move(opts), std::move(detector), std::move(workload),
                 nodes, std::move(label));
}

std::optional<Session> Session::open(SessionOptions opts,
                                     std::unique_ptr<net::Workload> workload,
                                     std::size_t workload_nodes,
                                     std::string* error) {
  if (!opts.scenario.empty()) {
    fail(error,
         "Session::open with an explicit workload forbids opts.scenario");
    return std::nullopt;
  }
  if (workload == nullptr) {
    fail(error, "Session::open: null workload");
    return std::nullopt;
  }
  auto detector = build_detector(opts.detector, error);
  if (!detector) return std::nullopt;
  const std::size_t nodes = std::max(opts.n, workload_nodes);
  if (nodes == 0) {
    fail(error, "Session::open: workload needs at least one node");
    return std::nullopt;
  }
  if (!check_cap(nodes, error)) return std::nullopt;
  return Session(std::move(opts), std::move(detector), std::move(workload),
                 nodes, "external");
}

std::size_t Session::run() {
  if (workload_ == nullptr) return 0;
  // Same loop shape as net::run_workload, expressed via advance() so the
  // per-round observation/record semantics cannot drift between run() and
  // barrier-interleaved callers (the serve loop).
  std::size_t rounds = 0;
  while (rounds < options_.max_rounds && !workload_->finished()) {
    advance();
    ++rounds;
  }
  // Trailing drain (same cap as run_workload's default): quiet rounds so
  // the final metrics describe a settled network.  Unrecorded -- a replay's
  // own drain re-executes them; record_next_round back-fills them as empty
  // batches if another recorded round follows later.
  std::size_t drained = 0;
  while (drained < net::kDrainCap && !sim_->all_consistent()) {
    sim_->step({});
    ++rounds;
    ++drained;
  }
  return rounds;
}

std::optional<net::RoundResult> Session::advance() {
  if (workload_ == nullptr || workload_->finished()) return std::nullopt;
  const net::WorkloadObservation obs{sim_->graph(), sim_->round() + 1,
                                     sim_->all_consistent()};
  const std::vector<EdgeEvent> events = workload_->next_round(obs);
  if (options_.record) record_next_round(events);
  return sim_->step(events);
}

SessionSnapshot Session::snapshot() const {
  return SessionSnapshot{sim_->round(), sim_->all_consistent(),
                         sim_->degraded_count()};
}

net::RoundResult Session::step(std::span<const EdgeEvent> events) {
  if (options_.record) record_next_round(events);
  return sim_->step(events);
}

void Session::record_next_round(std::span<const EdgeEvent> events) {
  // Rounds executed without going through here (run()'s trailing drain,
  // run_until_stable) carried no events; back-fill them as empty batches so
  // recorded_[i] is always the batch of round i+1.
  const auto executed = static_cast<std::size_t>(sim_->round());
  if (recorded_.size() < executed) recorded_.resize(executed);
  recorded_.emplace_back(events.begin(), events.end());
}

std::size_t Session::run_until_stable(std::size_t max_rounds) {
  return sim_->run_until_stable(max_rounds);
}

net::Answer Session::query(NodeId v, const Query& q) const {
  return detector_->query(*sim_, v, q);
}

std::optional<std::vector<SubgraphTuple>> Session::list(
    NodeId v, QueryKind kind) const {
  return detector_->list(*sim_, v, kind);
}

std::optional<std::string> Session::audit() const {
  return detector_->audit(*sim_);
}

harness::RunSummary Session::summary() const {
  return harness::summarize(*sim_);
}

}  // namespace dynsub::detect
