// Baseline tests: the Lemma 1 full 2-hop structure (exactness and its
// inherently linear update cost), the Section 1.3 naive strawman (which
// must fail the flicker scenario -- reproducing the paper's motivating
// counterexample), and the FloodKHop measurement baseline.
#include <gtest/gtest.h>

#include "baseline/floodkhop.hpp"
#include "baseline/full2hop.hpp"
#include "baseline/naive2hop.hpp"
#include "core/robust2hop.hpp"
#include "dynamics/flicker.hpp"
#include "dynamics/random_churn.hpp"
#include "oracle/subgraphs.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

using baseline::FloodKHopNode;
using baseline::FullTwoHopNode;
using baseline::NaiveTwoHopNode;
using testing::run_audited;
using testing::run_script_audited;

/// Audit for the full 2-hop baseline: consistent nodes know exactly E^{v,2}.
std::optional<std::string> audit_full2hop(const net::Simulator& sim) {
  for (NodeId v = 0; v < sim.node_count(); ++v) {
    if (!sim.consistency()[v]) continue;
    const auto& node = dynamic_cast<const FullTwoHopNode&>(sim.node(v));
    const auto expected = oracle::hop_edges(sim.graph(), v, 2);
    const auto actual = node.known_edges();
    if (!(expected == actual)) {
      std::ostringstream os;
      os << "round " << sim.round() << " node " << v
         << ": full2hop != E^{v,2} (" << actual.size() << " vs "
         << expected.size() << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

TEST(FullTwoHopTest, SnapshotTransfersNeighborhood) {
  net::Simulator sim(8, net::store_of<FullTwoHopNode>());
  // Build a star around node 1, then connect node 0: node 0 must learn all
  // of node 1's edges via the chunked snapshot.
  std::vector<std::vector<EdgeEvent>> script;
  script.push_back({EdgeEvent::insert(1, 2), EdgeEvent::insert(1, 3),
                    EdgeEvent::insert(1, 4), EdgeEvent::insert(1, 5)});
  script.push_back({EdgeEvent::insert(0, 1)});
  run_script_audited(sim, script, 64, audit_full2hop);
  const auto& node = dynamic_cast<const FullTwoHopNode&>(sim.node(0));
  for (NodeId u = 2; u <= 5; ++u) {
    EXPECT_EQ(node.query_edge(Edge(1, u)), net::Answer::kTrue) << u;
  }
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kFalse);
}

TEST(FullTwoHopTest, ExactUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 12;
  cp.target_edges = 18;
  cp.max_changes = 3;
  cp.rounds = 60;
  cp.seed = 51;
  dynamics::RandomChurnWorkload wl(cp);
  net::Simulator sim(cp.n, net::store_of<FullTwoHopNode>());
  run_audited(sim, wl, 20000, audit_full2hop);
}

TEST(FullTwoHopTest, UpdateCostScalesLinearlyInN) {
  // One fresh edge into an established neighborhood costs ~n/log n rounds
  // of inconsistency (the snapshot), growing with n -- Lemma 1's price.
  std::vector<double> costs;
  for (std::size_t n : {64u, 256u, 1024u}) {
    net::Simulator sim(n, net::store_of<FullTwoHopNode>());
    std::vector<EdgeEvent> star;
    for (NodeId u = 2; u < 34; ++u) star.push_back(EdgeEvent::insert(1, u));
    sim.step(star);
    sim.run_until_stable(100000);
    const auto before = sim.metrics().rounds();
    sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
    sim.run_until_stable(100000);
    costs.push_back(static_cast<double>(sim.metrics().rounds() - before));
  }
  EXPECT_GT(costs[1], costs[0] * 1.5);
  EXPECT_GT(costs[2], costs[1] * 2.0);
}

TEST(NaiveTwoHopTest, FlickerMakesItConfidentlyWrong) {
  // The Section 1.3 counterexample: after the schedule, the victim flies
  // its consistent flag while remembering the deleted far edge.
  const auto scenario = dynamics::make_flicker_scenario(8);
  net::Simulator sim(8, net::store_of<NaiveTwoHopNode>());
  net::ScriptedWorkload wl(scenario.script);
  net::run_workload(sim, wl, 100000);
  ASSERT_TRUE(sim.all_consistent());
  const auto& victim =
      dynamic_cast<const NaiveTwoHopNode&>(sim.node(scenario.victim));
  EXPECT_FALSE(sim.graph().has_edge(scenario.ghost));
  EXPECT_EQ(victim.query_edge(scenario.ghost), net::Answer::kTrue)
      << "the naive algorithm was supposed to be fooled by the flicker";
}

TEST(NaiveTwoHopTest, RobustStructureSurvivesTheSameSchedule) {
  // Control: the Theorem 7 structure on the identical event schedule.
  const auto scenario = dynamics::make_flicker_scenario(8);
  net::Simulator sim(8, net::store_of<core::Robust2HopNode>());
  net::ScriptedWorkload wl(scenario.script);
  net::run_workload(sim, wl, 100000);
  ASSERT_TRUE(sim.all_consistent());
  const auto& victim =
      dynamic_cast<const core::Robust2HopNode&>(sim.node(scenario.victim));
  EXPECT_EQ(victim.query_edge(scenario.ghost), net::Answer::kFalse);
}

TEST(FloodKHopTest, LearnsWithinRadius) {
  net::Simulator sim(8, net::store_of<FloodKHopNode>(3));
  // Path 0-1-2-3-4-5: radius-3 flooding reaches edges whose near endpoint
  // is within 3 hops ({3,4} qualifies via node 3); {4,5} is out of range.
  std::vector<std::vector<EdgeEvent>> script{
      {EdgeEvent::insert(0, 1)}, {EdgeEvent::insert(1, 2)},
      {EdgeEvent::insert(2, 3)}, {EdgeEvent::insert(3, 4)},
      {EdgeEvent::insert(4, 5)},
  };
  net::ScriptedWorkload wl(script);
  net::run_workload(sim, wl, 100000);
  ASSERT_TRUE(sim.all_consistent());
  const auto& node = dynamic_cast<const FloodKHopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(3, 4)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(4, 5)), net::Answer::kFalse);
}

TEST(FloodKHopTest, DumpTeachesFreshNeighbor) {
  net::Simulator sim(10, net::store_of<FloodKHopNode>(2));
  std::vector<std::vector<EdgeEvent>> script;
  script.push_back({EdgeEvent::insert(1, 2), EdgeEvent::insert(1, 3),
                    EdgeEvent::insert(2, 3)});
  script.push_back({});
  script.push_back({EdgeEvent::insert(0, 1)});
  net::ScriptedWorkload wl(script);
  net::run_workload(sim, wl, 100000);
  ASSERT_TRUE(sim.all_consistent());
  const auto& node = dynamic_cast<const FloodKHopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(1, 3)), net::Answer::kTrue);
  const std::array<NodeId, 3> tri{0, 1, 2};
  EXPECT_EQ(node.query_cycle(tri), net::Answer::kFalse);  // no {0,2}
}

TEST(FloodKHopTest, DeletionFloodsOut) {
  net::Simulator sim(6, net::store_of<FloodKHopNode>(3));
  std::vector<std::vector<EdgeEvent>> script{
      {EdgeEvent::insert(0, 1)}, {EdgeEvent::insert(1, 2)},
      {EdgeEvent::insert(2, 3)}, {},
      {},                        {EdgeEvent::remove(2, 3)},
  };
  net::ScriptedWorkload wl(script);
  net::run_workload(sim, wl, 100000);
  ASSERT_TRUE(sim.all_consistent());
  const auto& node = dynamic_cast<const FloodKHopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kFalse);
}

}  // namespace
}  // namespace dynsub
