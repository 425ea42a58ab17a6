// Integration tests: whole-system runs that check the paper's complexity
// claims end to end -- O(1) amortized rounds for the upper-bound
// structures under every workload (including the adaptive adversaries),
// and visibly growing amortized cost for the baselines on the lower-bound
// constructions.
#include <gtest/gtest.h>

#include "baseline/floodkhop.hpp"
#include "baseline/full2hop.hpp"
#include "core/audit.hpp"
#include "core/robust2hop.hpp"
#include "core/robust3hop.hpp"
#include "core/triangle.hpp"
#include "dynamics/lb_cycle.hpp"
#include "dynamics/lb_membership.hpp"
#include "dynamics/random_churn.hpp"
#include "dynamics/sessions.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {


/// Runs random churn over an algorithm and returns the final metrics-based
/// summary quantities used below.
template <typename NodeT>
net::Metrics const& churn_run(net::Simulator& sim, std::size_t rounds,
                              std::uint64_t seed) {
  dynamics::RandomChurnParams cp;
  cp.n = sim.node_count();
  cp.target_edges = 2 * sim.node_count();
  cp.max_changes = 6;
  cp.rounds = rounds;
  cp.seed = seed;
  dynamics::RandomChurnWorkload wl(cp);
  net::run_workload(sim, wl, 100000);
  EXPECT_TRUE(sim.all_consistent());
  return sim.metrics();
}

TEST(IntegrationTest, TriangleAmortizedConstantAcrossSizes) {
  // The O(1) bound must not drift with n.
  for (std::size_t n : {16u, 48u, 96u}) {
    net::Simulator sim(n, net::store_of<core::TriangleNode>());
    const auto& m = churn_run<core::TriangleNode>(sim, 150, 101 + n);
    EXPECT_LE(m.amortized(), 3.0) << "n=" << n;
    EXPECT_LE(m.amortized_sup(), 4.0) << "n=" << n;
  }
}

TEST(IntegrationTest, Robust3HopAmortizedConstantAcrossSizes) {
  for (std::size_t n : {16u, 48u, 96u}) {
    net::Simulator sim(n, net::store_of<core::Robust3HopNode>());
    const auto& m = churn_run<core::Robust3HopNode>(sim, 150, 202 + n);
    EXPECT_LE(m.amortized(), 4.0) << "n=" << n;
    EXPECT_LE(m.amortized_sup(), 6.0) << "n=" << n;
  }
}

TEST(IntegrationTest, SessionChurnKeepsAllStructuresConstant) {
  dynamics::SessionChurnParams sp;
  sp.n = 40;
  sp.rounds = 250;
  sp.seed = 77;
  {
    net::Simulator sim(sp.n, net::store_of<core::TriangleNode>());
    dynamics::SessionChurnWorkload wl(sp);
    net::run_workload(sim, wl, 100000);
    EXPECT_LE(sim.metrics().amortized(), 3.0);
  }
  {
    net::Simulator sim(sp.n, net::store_of<core::Robust3HopNode>());
    dynamics::SessionChurnWorkload wl(sp);
    net::run_workload(sim, wl, 100000);
    EXPECT_LE(sim.metrics().amortized(), 4.0);
  }
}

TEST(IntegrationTest, MassChurnSingleRoundBatches) {
  // The model allows an arbitrary number of changes per round; throw whole
  // graphs in and out at once and verify correctness plus cheap recovery.
  net::Simulator sim(24, net::store_of<core::TriangleNode>());
  std::vector<EdgeEvent> big;
  for (NodeId a = 0; a < 24; ++a) {
    for (NodeId b = a + 1; b < 24; b += 3) big.push_back(EdgeEvent::insert(a, b));
  }
  sim.step(big);
  sim.run_until_stable(100000);
  auto err = core::audit_triangle(sim);
  EXPECT_FALSE(err.has_value()) << *err;
  // Tear everything down at once.
  std::vector<EdgeEvent> teardown;
  for (const auto& [e, t] : sim.graph().edges()) {
    (void)t;
    teardown.push_back({e, EventKind::kDelete});
  }
  sim.step(teardown);
  sim.run_until_stable(100000);
  err = core::audit_triangle(sim);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(sim.graph().edge_count(), 0u);
  // Amortized cost stays constant even for whole-graph batches.
  EXPECT_LE(sim.metrics().amortized(), 1.0);
}

TEST(IntegrationTest, MembershipLbForcesLinearGrowthOnFull2Hop) {
  // Corollary 2 / Lemma 1 shape: the Theorem 2 adversary (P3 membership ==
  // 2-hop listing) drives the full-2hop baseline's amortized cost up
  // roughly linearly in n; the ratio between sizes shows the growth.
  // The chunked-snapshot cost only bites once n-bit snapshots exceed one
  // O(log n)-bit message, so the sweep needs real sizes.
  std::vector<double> amortized;
  for (std::size_t t : {64u, 128u, 256u}) {
    dynamics::MembershipLbParams mp;
    mp.pattern = dynamics::pattern_p3();
    mp.t = t;
    dynamics::MembershipLbAdversary wl(mp);
    net::Simulator sim(wl.nodes_required(),
                       net::store_of<baseline::FullTwoHopNode>());
    net::run_workload(sim, wl, 2000000);
    EXPECT_TRUE(wl.finished());
    amortized.push_back(sim.metrics().amortized());
  }
  EXPECT_GT(amortized[1], amortized[0] * 1.3);
  EXPECT_GT(amortized[2], amortized[1] * 1.3);
}

TEST(IntegrationTest, TriangleStructureShrugsOffMembershipLbAdversary) {
  // Contrast: the same adversary cannot hurt the O(1) clique structure
  // (H = K3 membership is cheap; the hard H are the non-cliques).
  dynamics::MembershipLbParams mp;
  mp.pattern = dynamics::pattern_p3();
  mp.t = 24;
  dynamics::MembershipLbAdversary wl(mp);
  net::Simulator sim(wl.nodes_required(), net::store_of<core::TriangleNode>());
  net::run_workload(sim, wl, 2000000);
  EXPECT_TRUE(wl.finished());
  EXPECT_LE(sim.metrics().amortized(), 3.0);
}

TEST(IntegrationTest, CycleLbForcesGrowthOnFlood3Hop) {
  // Theorem 4 shape at k=6: the Figure 4 adversary makes the flooding
  // baseline pay ~sqrt(n) amortized; doubling D should scale the cost.
  std::vector<double> amortized;
  for (std::size_t d : {4u, 8u, 16u}) {
    dynamics::CycleLbParams cp;
    cp.d = d;
    cp.seed = 13;
    dynamics::CycleLbAdversary wl(cp);
    net::Simulator sim(wl.nodes_required(),
                       net::store_of<baseline::FloodKHopNode>(3));
    net::run_workload(sim, wl, 4000000);
    EXPECT_TRUE(wl.finished());
    amortized.push_back(sim.metrics().amortized());
  }
  EXPECT_GT(amortized[1], amortized[0] * 1.2);
  EXPECT_GT(amortized[2], amortized[1] * 1.2);
}

TEST(IntegrationTest, FourFiveCycleListingSurvivesCycleLbGadget) {
  // The Figure 4 gadget contains plenty of 4-cycles (two u2 columns share
  // rows); the Theorem 5 structure handles the same event stream in O(1)
  // amortized -- the contrast that places the 5-vs-6 cycle crossover.
  dynamics::CycleLbParams cp;
  cp.d = 5;
  cp.seed = 13;
  dynamics::CycleLbAdversary wl(cp);
  net::Simulator sim(wl.nodes_required(),
                     net::store_of<core::Robust3HopNode>());
  net::run_workload(sim, wl, 2000000);
  EXPECT_TRUE(wl.finished());
  EXPECT_LE(sim.metrics().amortized(), 4.0);
}

TEST(IntegrationTest, MeterMatchesHandCountedScenario) {
  // A single inserted edge makes its two endpoints busy for the insertion
  // round (both flags), then everyone settles: exactly 2 charged rounds
  // for the triangle node's two-round quiet rule, 1 for robust2hop.
  {
    net::Simulator sim(4, net::store_of<core::Robust2HopNode>());
    sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
    sim.run_until_stable(100);
    EXPECT_EQ(sim.metrics().inconsistent_rounds(), 1u);
    EXPECT_EQ(sim.metrics().changes(), 1u);
  }
  {
    net::Simulator sim(4, net::store_of<core::TriangleNode>());
    sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
    sim.run_until_stable(100);
    EXPECT_EQ(sim.metrics().inconsistent_rounds(), 2u);
  }
}

}  // namespace
}  // namespace dynsub

// Appended edge-case coverage: minimal networks, component surgery, and
// same-round storms -- the corners where queue/flag bookkeeping tends to
// break first.
namespace dynsub {
namespace {

TEST(EdgeCaseTest, TwoNodeNetworkFlicker) {
  net::Simulator sim(2, net::store_of<core::TriangleNode>());
  for (int cycle = 0; cycle < 10; ++cycle) {
    sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
    sim.step(std::vector<EdgeEvent>{EdgeEvent::remove(0, 1)});
  }
  sim.run_until_stable(100);
  auto err = core::audit_triangle(sim);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_LE(sim.metrics().amortized(), 2.0);
}

TEST(EdgeCaseTest, SingleNodeNetworkIsTriviallyConsistent) {
  net::Simulator sim(1, net::store_of<core::Robust3HopNode>());
  for (int r = 0; r < 5; ++r) sim.step({});
  EXPECT_TRUE(sim.all_consistent());
  EXPECT_EQ(sim.metrics().inconsistent_rounds(), 0u);
}

TEST(EdgeCaseTest, ComponentSplitAndMergeKeepsRobust3HopSound) {
  // Build a path spanning two halves, cut the bridge (stranding 3-hop
  // knowledge across the cut), churn both sides, then re-bridge: the
  // sandwich audit must hold at every consistent step.
  net::Simulator sim(8, net::store_of<core::Robust3HopNode>());
  net::ScriptedWorkload wl({
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(4, 5)},
      {EdgeEvent::insert(1, 2), EdgeEvent::insert(5, 6)},
      {EdgeEvent::insert(2, 3), EdgeEvent::insert(6, 7)},
      {EdgeEvent::insert(3, 4)},  // the bridge
      {},
      {},
      {EdgeEvent::remove(3, 4)},  // split
      {EdgeEvent::insert(0, 2)},  // churn inside each half
      {EdgeEvent::insert(5, 7)},
      {},
      {EdgeEvent::insert(3, 4)},  // merge again
  });
  testing::run_audited(sim, wl, 100000, core::audit_robust3hop);
}

TEST(EdgeCaseTest, SameRoundStormAcrossAllCoreStructures) {
  // One round that rewires half the graph at once, repeated; each
  // structure must recover and stay exact/sound.
  const std::size_t n = 12;
  auto storm_script = [&] {
    std::vector<std::vector<EdgeEvent>> script;
    // Build a wheel.
    std::vector<EdgeEvent> build;
    for (NodeId u = 1; u < n; ++u) build.push_back(EdgeEvent::insert(0, u));
    for (NodeId u = 1; u + 1 < n; ++u) {
      build.push_back(EdgeEvent::insert(u, u + 1));
    }
    script.push_back(build);
    for (int q = 0; q < 30; ++q) script.emplace_back();
    // The storm: delete every hub edge and close the rim, same round.
    std::vector<EdgeEvent> storm;
    for (NodeId u = 1; u < n; ++u) storm.push_back(EdgeEvent::remove(0, u));
    storm.push_back(EdgeEvent::insert(1, static_cast<NodeId>(n - 1)));
    script.push_back(storm);
    for (int q = 0; q < 30; ++q) script.emplace_back();
    return script;
  }();
  {
    net::Simulator sim(n, net::store_of<core::TriangleNode>());
    net::ScriptedWorkload wl(storm_script);
    testing::run_audited(sim, wl, 100000, core::audit_triangle);
  }
  {
    net::Simulator sim(n, net::store_of<core::Robust2HopNode>());
    net::ScriptedWorkload wl(storm_script);
    testing::run_audited(sim, wl, 100000, core::audit_robust2hop);
  }
  {
    net::Simulator sim(n, net::store_of<core::Robust3HopNode>());
    net::ScriptedWorkload wl(storm_script);
    testing::run_audited(sim, wl, 100000, core::audit_robust3hop);
  }
}

TEST(EdgeCaseTest, ReinsertionSameRoundAsNeighborDeletion) {
  // The interleaving behind the D5 races, as a deterministic miniature:
  // {1,2} flickers while {0,1} / {0,2} toggle in the same rounds.
  net::Simulator sim(4, net::store_of<core::TriangleNode>());
  net::ScriptedWorkload wl({
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(0, 2)},
      {EdgeEvent::insert(1, 2), EdgeEvent::insert(1, 3)},
      {EdgeEvent::remove(1, 2), EdgeEvent::remove(0, 1)},
      {EdgeEvent::insert(1, 2), EdgeEvent::insert(0, 1)},
      {EdgeEvent::remove(0, 2), EdgeEvent::remove(1, 2)},
      {EdgeEvent::insert(0, 2), EdgeEvent::insert(1, 2)},
  });
  testing::run_audited(sim, wl, 100000, core::audit_triangle);
  const auto& node = dynamic_cast<const core::TriangleNode&>(sim.node(0));
  EXPECT_EQ(node.query_triangle(1, 2), net::Answer::kTrue);
}

}  // namespace
}  // namespace dynsub
