// Adversary lab: watch the Section 1.3 counterexample happen.
//
// Replays the paper's flickering-deletion schedule round by round against
// two nodes side by side -- the timestamp-free strawman and the Theorem 7
// robust structure -- printing the victim's view of the doomed far edge
// each round.  The output shows the exact moment the ghost survives in the
// naive structure (and keeps being reported as present, wrongly, under a
// raised consistency flag) while the robust purge rule kills it.
//
//   $ ./adversary_lab
#include <cstdio>

#include "baseline/naive2hop.hpp"
#include "core/robust2hop.hpp"
#include "dynamics/flicker.hpp"
#include "net/simulator.hpp"

using namespace dynsub;

namespace {

const char* show(net::Answer a) {
  switch (a) {
    case net::Answer::kTrue:
      return "TRUE ";
    case net::Answer::kFalse:
      return "false";
    default:
      return "  ?  ";
  }
}

}  // namespace

int main() {
  const auto scenario = dynamics::make_flicker_scenario(8);
  net::Simulator naive_sim(8, net::store_of<baseline::NaiveTwoHopNode>());
  net::Simulator robust_sim(8, net::store_of<core::Robust2HopNode>());

  std::printf("Section 1.3 flicker attack on the triangle {%u,%u,%u}; the\n",
              scenario.victim, scenario.u, scenario.w);
  std::printf("far edge {%u,%u} dies mid-schedule but its deletion relays\n",
              scenario.ghost.lo(), scenario.ghost.hi());
  std::printf("are timed to miss the victim.\n\n");
  std::printf("%-7s %-28s %-16s %-16s\n", "round", "events",
              "naive: ghost?", "robust: ghost?");

  for (std::size_t r = 0; r < scenario.script.size(); ++r) {
    const auto& batch = scenario.script[r];
    naive_sim.step(batch);
    robust_sim.step(batch);

    std::string events;
    for (const auto& ev : batch) {
      events += (ev.kind == EventKind::kInsert ? '+' : '-');
      events += '{';
      events += std::to_string(ev.edge.lo());
      events += ',';
      events += std::to_string(ev.edge.hi());
      events += "} ";
    }
    if (events.empty()) {
      // Compress quiet stretches.
      if (r + 1 < scenario.script.size() && scenario.script[r + 1].empty()) {
        continue;
      }
      events = "(drain)";
    }
    const auto& naive = dynamic_cast<const baseline::NaiveTwoHopNode&>(
        naive_sim.node(scenario.victim));
    const auto& robust = dynamic_cast<const core::Robust2HopNode&>(
        robust_sim.node(scenario.victim));
    std::printf("%-7zu %-28s %-16s %-16s\n", r + 1, events.c_str(),
                show(naive.query_edge(scenario.ghost)),
                show(robust.query_edge(scenario.ghost)));
  }

  const bool edge_exists = naive_sim.graph().has_edge(scenario.ghost);
  std::printf("\nground truth at the end: edge {%u,%u} %s\n",
              scenario.ghost.lo(), scenario.ghost.hi(),
              edge_exists ? "exists" : "does NOT exist");
  std::printf("the naive node still answers TRUE with its consistency flag "
              "up;\nthe Theorem 7 timestamps purged the ghost.\n");
  return 0;
}
