// P2P triangle census: the paper's motivating scenario, end to end.
//
// A peer-to-peer overlay with heavy-tailed session lengths (peers join for
// Pareto-distributed sessions, tear all links down when they leave) runs
// the Theorem 1 structure.  A monitoring loop periodically asks every
// *consistent* peer for its triangle memberships -- the kind of local
// clustering signal overlay protocols use (the paper's intro points at
// algorithms that get cheaper on triangle-free graphs).  The census is
// cross-checked against the centralized oracle to show that consistent
// answers are exact even while the network churns hard.
//
//   $ ./p2p_triangle_census [peers] [rounds]
#include <cstdio>
#include <cstdlib>

#include "core/triangle.hpp"
#include "dynamics/sessions.hpp"
#include "net/simulator.hpp"
#include "oracle/subgraphs.hpp"

using namespace dynsub;

int main(int argc, char** argv) {
  const std::size_t peers = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  const std::size_t rounds =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 600;

  net::Simulator sim(peers, net::store_of<core::TriangleNode>());

  dynamics::SessionChurnParams sp;
  sp.n = peers;
  sp.join_degree = 4;
  sp.session_min = 12.0;
  sp.session_alpha = 1.5;  // heavy tail: a few very long-lived peers
  sp.mean_offline = 10.0;
  sp.rewire_prob = 0.03;
  sp.triadic_closure = 0.6;  // neighbor-of-neighbor links -> clustering
  sp.rounds = rounds;
  sp.seed = 2026;
  dynamics::SessionChurnWorkload churn(sp);

  std::printf("p2p overlay: %zu peers, heavy-tailed sessions\n", peers);
  std::printf("%-8s %-7s %-8s %-12s %-14s %-10s\n", "round", "edges",
              "online", "consistent", "triangles", "exactness");

  std::size_t executed = 0;
  std::size_t calm = 0;  // extra quiet rounds before a census checkpoint
  while (executed < rounds || !sim.all_consistent()) {
    const bool censusing = executed > 0 && executed % 100 < 10;
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    // The monitor reads during brief calm windows: pause churn for a few
    // rounds so the queues drain, then census.
    auto events = (churn.finished() || censusing)
                      ? std::vector<EdgeEvent>{}
                      : churn.next_round(obs);
    sim.step(events);
    ++executed;
    calm = events.empty() ? calm + 1 : 0;
    if (executed > rounds + 2000) break;  // safety valve

    if (executed % 100 != 9) continue;

    // The census: ask every consistent peer; verify against the oracle.
    std::size_t consistent = 0, census = 0, checked = 0, exact = 0;
    for (NodeId v = 0; v < peers; ++v) {
      if (!sim.consistency()[v]) continue;
      ++consistent;
      const auto& node =
          dynamic_cast<const core::TriangleNode&>(sim.node(v));
      const auto listed = node.list_triangles();
      census += listed.size();
      ++checked;
      exact += (listed == oracle::triangles_through(sim.graph(), v));
    }
    std::printf("%-8lld %-7zu %-8zu %-12zu %-14zu %zu/%zu\n",
                static_cast<long long>(sim.round()), sim.graph().edge_count(),
                churn.online_count(), consistent, census / 3, exact, checked);
  }

  std::printf(
      "\ntotals: %llu topology changes, %llu inconsistent rounds, "
      "amortized %.2f rounds/change\n",
      static_cast<unsigned long long>(sim.metrics().changes()),
      static_cast<unsigned long long>(sim.metrics().inconsistent_rounds()),
      sim.metrics().amortized());
  std::printf("(each census divides by 3: every triangle is listed by all "
              "three corners)\n");
  return 0;
}
