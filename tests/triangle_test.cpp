// Theorem 1 tests: triangle membership listing.  The structure must hold
// S_v == T^{v,2}_i exactly at every consistent node, list exactly the
// oracle's triangles through each node, and do it in O(1) amortized rounds
// -- across all insertion orders, flicker, and random churn.
#include <gtest/gtest.h>

#include <array>

#include "core/audit.hpp"
#include "core/triangle.hpp"
#include "detect/registry.hpp"
#include "dynamics/flicker.hpp"
#include "dynamics/planted.hpp"
#include "dynamics/random_churn.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

using core::TriangleNode;
using testing::run_audited;
using testing::run_script_audited;

net::Simulator make_sim(std::size_t n) {
  return net::Simulator(n, net::store_of<TriangleNode>());
}

// ----------------------------------------------------------- scripted ----

TEST(TriangleTest, AllThreeNodesListTheTriangleRegardlessOfOrder) {
  // All 6 insertion orders of a triangle's edges: each corner must end up
  // answering true (this exercises both temporal patterns incl. the
  // mark-(b) relay).
  const std::array<EdgeEvent, 3> edges{EdgeEvent::insert(0, 1),
                                       EdgeEvent::insert(0, 2),
                                       EdgeEvent::insert(1, 2)};
  const std::array<std::array<int, 3>, 6> orders{{{0, 1, 2},
                                                  {0, 2, 1},
                                                  {1, 0, 2},
                                                  {1, 2, 0},
                                                  {2, 0, 1},
                                                  {2, 1, 0}}};
  for (const auto& order : orders) {
    auto sim = make_sim(3);
    std::vector<std::vector<EdgeEvent>> script;
    for (int idx : order) script.push_back({edges[idx]});
    run_script_audited(sim, script, 32, core::audit_triangle);
    for (NodeId v = 0; v < 3; ++v) {
      const auto& node = dynamic_cast<const TriangleNode&>(sim.node(v));
      const NodeId a = (v + 1) % 3, b = (v + 2) % 3;
      EXPECT_EQ(node.query_triangle(a, b), net::Answer::kTrue)
          << "v=" << v << " order=" << order[0] << order[1] << order[2];
      EXPECT_EQ(node.list_triangles().size(), 1u);
    }
  }
}

TEST(TriangleTest, NoFalsePositiveOnPath) {
  auto sim = make_sim(3);
  run_script_audited(
      sim, {{EdgeEvent::insert(0, 1)}, {EdgeEvent::insert(1, 2)}}, 16,
      core::audit_triangle);
  const auto& node = dynamic_cast<const TriangleNode&>(sim.node(1));
  EXPECT_EQ(node.query_triangle(0, 2), net::Answer::kFalse);
}

TEST(TriangleTest, DeletingAnyEdgeKillsTheTriangleEverywhere) {
  for (int victim = 0; victim < 3; ++victim) {
    auto sim = make_sim(3);
    const std::array<EdgeEvent, 3> dels{EdgeEvent::remove(0, 1),
                                        EdgeEvent::remove(0, 2),
                                        EdgeEvent::remove(1, 2)};
    run_script_audited(sim,
                       {{EdgeEvent::insert(0, 1)},
                        {EdgeEvent::insert(0, 2)},
                        {EdgeEvent::insert(1, 2)},
                        {},
                        {dels[victim]}},
                       32, core::audit_triangle);
    for (NodeId v = 0; v < 3; ++v) {
      const auto& node = dynamic_cast<const TriangleNode&>(sim.node(v));
      const NodeId a = (v + 1) % 3, b = (v + 2) % 3;
      EXPECT_EQ(node.query_triangle(a, b), net::Answer::kFalse)
          << "victim=" << victim << " v=" << v;
      EXPECT_TRUE(node.list_triangles().empty());
    }
  }
}

TEST(TriangleTest, SharedEdgeBetweenTwoTriangles) {
  // Triangles {0,1,2} and {0,1,3} share edge {0,1}; deleting {1,2} must
  // only kill the first.
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(0, 2), EdgeEvent::insert(0, 3)},
                      {EdgeEvent::insert(1, 2), EdgeEvent::insert(1, 3)},
                      {},
                      {EdgeEvent::remove(1, 2)}},
                     32, core::audit_triangle);
  const auto& n0 = dynamic_cast<const TriangleNode&>(sim.node(0));
  EXPECT_EQ(n0.query_triangle(1, 2), net::Answer::kFalse);
  EXPECT_EQ(n0.query_triangle(1, 3), net::Answer::kTrue);
  EXPECT_EQ(n0.list_triangles().size(), 1u);
}

TEST(TriangleTest, FlickerScenarioDoesNotFoolTheStructure) {
  const auto scenario = dynamics::make_flicker_scenario(8);
  auto sim = make_sim(8);
  run_script_audited(sim, scenario.script, 32, core::audit_triangle);
  const auto& victim =
      dynamic_cast<const TriangleNode&>(sim.node(scenario.victim));
  EXPECT_EQ(victim.query_triangle(scenario.u, scenario.w),
            net::Answer::kFalse);
}

TEST(TriangleTest, MembershipQueryValidatesConsistencyFirst) {
  auto sim = make_sim(3);
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  const auto& node = dynamic_cast<const TriangleNode&>(sim.node(0));
  EXPECT_EQ(node.query_triangle(1, 2), net::Answer::kInconsistent);
}

// ----------------------------------------------------- property sweep ----

struct SweepCase {
  std::size_t n;
  std::size_t target_edges;
  std::size_t max_changes;
  std::uint64_t seed;
};

class TriangleSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TriangleSweep, ExactListingUnderRandomChurn) {
  const auto& p = GetParam();
  auto sim = make_sim(p.n);
  dynamics::RandomChurnParams cp;
  cp.n = p.n;
  cp.target_edges = p.target_edges;
  cp.max_changes = p.max_changes;
  cp.rounds = 120;
  cp.seed = p.seed;
  dynamics::RandomChurnWorkload wl(cp);
  run_audited(sim, wl, 5000, core::audit_triangle);
  EXPECT_LE(sim.metrics().amortized_sup(), 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, TriangleSweep,
    ::testing::Values(SweepCase{8, 12, 3, 11}, SweepCase{8, 14, 3, 12},
                      SweepCase{12, 24, 4, 13}, SweepCase{12, 24, 5, 14},
                      SweepCase{16, 36, 6, 15}, SweepCase{16, 30, 8, 16},
                      SweepCase{20, 50, 8, 17}, SweepCase{24, 60, 10, 18},
                      SweepCase{24, 40, 14, 19}, SweepCase{32, 80, 12, 20}));

TEST(TriangleTest, DenseChurnManyTrianglesStaysExact) {
  // Dense small graph: lots of simultaneous triangles and pattern-(b)
  // relays crossing each other.
  auto sim = make_sim(8);
  dynamics::RandomChurnParams cp;
  cp.n = 8;
  cp.target_edges = 22;  // of 28 possible
  cp.max_changes = 5;
  cp.rounds = 200;
  cp.seed = 77;
  dynamics::RandomChurnWorkload wl(cp);
  run_audited(sim, wl, 5000, core::audit_triangle);
}

TEST(TriangleTest, PlantedCliqueChurnStaysExact) {
  dynamics::PlantedParams pp;
  pp.n = 18;
  pp.k = 4;
  pp.plants = 2;
  pp.noise_per_round = 1;
  pp.rebuild_period = 14;
  pp.rounds = 150;
  pp.seed = 5;
  dynamics::PlantedCliqueWorkload wl(pp);
  auto sim = make_sim(pp.n);
  run_audited(sim, wl, 5000, core::audit_triangle);
}

// ------------------------------------------------------- idle programs ----

// An idle TriangleNode holds only its id and flags; its first incident
// event creates the State, which is never freed.  A node that never had an
// edge (no State) and a node that gained one edge and lost it (an emptied
// State) must answer every declared query and listing identically, and
// both must stay consistent.
TEST(TriangleTest, IdleNodeAnswersLikeAnEmptiedOne) {
  constexpr NodeId kIdle = 0;
  constexpr NodeId kEmptied = 1;
  const auto detector = detect::build_detector("triangle(k=4)");
  ASSERT_NE(detector, nullptr);
  net::Simulator sim(6, detector->factory());
  // Node 1 learns the triangle {2,3,4} through its edge to 2, then loses
  // the edge; node 0 never has one.
  run_script_audited(sim,
                     {{EdgeEvent::insert(1, 2), EdgeEvent::insert(2, 3),
                       EdgeEvent::insert(2, 4), EdgeEvent::insert(3, 4),
                       EdgeEvent::insert(4, 5)},
                      {},
                      {},
                      {EdgeEvent::remove(1, 2)}},
                     64, core::audit_triangle);
  for (int r = 0; r < 3; ++r) sim.step({});
  ASSERT_EQ(core::audit_triangle(sim), std::nullopt);
  ASSERT_EQ(core::audit_cliques(sim, 4), std::nullopt);

  const auto nodes = sim.store().as<TriangleNode>("IdleNodeAnswersLike");
  for (const NodeId v : {kIdle, kEmptied}) {
    EXPECT_TRUE(sim.consistency()[v]) << "v=" << v;
    EXPECT_TRUE(nodes[v].consistent()) << "v=" << v;
    EXPECT_FALSE(nodes[v].wants_to_act()) << "v=" << v;
    EXPECT_EQ(nodes[v].queue_length(), 0u) << "v=" << v;
    EXPECT_TRUE(nodes[v].known_edges().empty()) << "v=" << v;
  }
  const auto same = [&](const detect::Query& q, const char* what) {
    EXPECT_EQ(detector->query(sim, kIdle, q),
              detector->query(sim, kEmptied, q))
        << what;
  };
  // Every edge of the network, both nodes' own pair included.
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = a + 1; b < 6; ++b) {
      same(detect::EdgeQuery{Edge(a, b)}, "edge");
    }
  }
  // Every triangle and clique query over the nodes besides the two.
  for (NodeId u = 2; u < 6; ++u) {
    same(detect::CliqueQuery{{u}}, "clique of two");
    for (NodeId w = u + 1; w < 6; ++w) {
      same(detect::TriangleQuery{u, w}, "triangle");
      same(detect::CliqueQuery{{u, w}}, "clique of three");
      for (NodeId x = w + 1; x < 6; ++x) {
        same(detect::CliqueQuery{{u, w, x}}, "clique of four");
      }
    }
  }
  // The node API's own edge case: a clique of self alone.
  EXPECT_EQ(nodes[kIdle].query_clique({}), nodes[kEmptied].query_clique({}));
  for (const detect::QueryKind kind : detector->info().listings) {
    const auto idle = detector->list(sim, kIdle, kind);
    const auto emptied = detector->list(sim, kEmptied, kind);
    ASSERT_TRUE(idle.has_value() && emptied.has_value());
    EXPECT_EQ(*idle, *emptied) << detect::to_string(kind);
    EXPECT_TRUE(idle->empty()) << detect::to_string(kind);
  }
  EXPECT_EQ(nodes[kIdle].list_cliques(3), nodes[kEmptied].list_cliques(3));
}

}  // namespace
}  // namespace dynsub
