// Theorem 7 tests: the robust 2-hop neighborhood structure is exact
// (S_v == R^{v,2}_i) at every consistent node after every round, across
// scripted scenarios and randomized churn sweeps, and its amortized round
// complexity stays O(1).
#include <gtest/gtest.h>

#include "core/audit.hpp"
#include "core/robust2hop.hpp"
#include "dynamics/flicker.hpp"
#include "dynamics/random_churn.hpp"
#include "dynamics/sessions.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

using core::Robust2HopNode;
using testing::run_audited;
using testing::run_script_audited;

net::Simulator make_sim(std::size_t n) {
  return net::Simulator(n, net::store_of<Robust2HopNode>());
}

// ----------------------------------------------------------- scripted ----

TEST(Robust2HopTest, LearnsNewerFarEdge) {
  auto sim = make_sim(3);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)}, {EdgeEvent::insert(1, 2)}},
                     16, core::audit_robust2hop);
  const auto& node = dynamic_cast<const Robust2HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(0, 1)), net::Answer::kTrue);
}

TEST(Robust2HopTest, DoesNotLearnOlderFarEdge) {
  auto sim = make_sim(3);
  run_script_audited(sim,
                     {{EdgeEvent::insert(1, 2)}, {EdgeEvent::insert(0, 1)}},
                     16, core::audit_robust2hop);
  const auto& node = dynamic_cast<const Robust2HopNode&>(sim.node(0));
  // {1,2} is older than the connecting edge: not (v,i)-robust.
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kFalse);
}

TEST(Robust2HopTest, FarEdgeDeletionPropagates) {
  auto sim = make_sim(3);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2)},
                      {},
                      {EdgeEvent::remove(1, 2)}},
                     16, core::audit_robust2hop);
  const auto& node = dynamic_cast<const Robust2HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kFalse);
}

TEST(Robust2HopTest, LocalDeletionPurgesDependentKnowledge) {
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2), EdgeEvent::insert(1, 3)},
                      {},
                      {EdgeEvent::remove(0, 1)}},
                     16, core::audit_robust2hop);
  const auto& node = dynamic_cast<const Robust2HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kFalse);
  EXPECT_EQ(node.query_edge(Edge(1, 3)), net::Answer::kFalse);
}

TEST(Robust2HopTest, SecondWitnessKeepsEdgeAlive) {
  // Triangle where the far edge is newest: deleting one witness must keep
  // {1,2} known through the other.
  auto sim = make_sim(3);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1), EdgeEvent::insert(0, 2)},
                      {EdgeEvent::insert(1, 2)},
                      {},
                      {EdgeEvent::remove(0, 1)}},
                     16, core::audit_robust2hop);
  const auto& node = dynamic_cast<const Robust2HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kTrue);
}

TEST(Robust2HopTest, InconsistentWhileUpdating) {
  auto sim = make_sim(3);
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  const auto& node = dynamic_cast<const Robust2HopNode&>(sim.node(0));
  // Round 1: node 0 just enqueued + sent its own edge; flag protocol makes
  // it busy this round.
  EXPECT_EQ(node.query_edge(Edge(0, 1)), net::Answer::kInconsistent);
  sim.run_until_stable(16);
  EXPECT_EQ(node.query_edge(Edge(0, 1)), net::Answer::kTrue);
}

TEST(Robust2HopTest, SurvivesFlickerScenario) {
  const auto scenario = dynamics::make_flicker_scenario(8);
  auto sim = make_sim(8);
  run_script_audited(sim, scenario.script, 32, core::audit_robust2hop);
  const auto& victim =
      dynamic_cast<const Robust2HopNode&>(sim.node(scenario.victim));
  // The ghost edge {u,w} was deleted mid-flicker; the timestamp rule must
  // have purged it even though no deletion message ever reached the victim.
  EXPECT_EQ(victim.query_edge(scenario.ghost), net::Answer::kFalse);
}

// ----------------------------------------------------- property sweep ----

struct SweepCase {
  std::size_t n;
  std::size_t target_edges;
  std::size_t max_changes;
  std::uint64_t seed;
};

class Robust2HopSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(Robust2HopSweep, ExactAtEveryConsistentNodeEveryRound) {
  const auto& p = GetParam();
  auto sim = make_sim(p.n);
  dynamics::RandomChurnParams cp;
  cp.n = p.n;
  cp.target_edges = p.target_edges;
  cp.max_changes = p.max_changes;
  cp.rounds = 120;
  cp.seed = p.seed;
  dynamics::RandomChurnWorkload wl(cp);
  run_audited(sim, wl, 5000, core::audit_robust2hop);
  // Amortized round complexity stays constant (Thm 7 says O(1); the
  // implementation's constant is small).
  EXPECT_LE(sim.metrics().amortized_sup(), 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, Robust2HopSweep,
    ::testing::Values(SweepCase{8, 10, 3, 1}, SweepCase{8, 10, 3, 2},
                      SweepCase{12, 18, 4, 3}, SweepCase{12, 18, 4, 4},
                      SweepCase{16, 30, 6, 5}, SweepCase{16, 30, 6, 6},
                      SweepCase{24, 50, 8, 7}, SweepCase{24, 20, 12, 8},
                      SweepCase{32, 60, 10, 9}, SweepCase{32, 90, 16, 10}));

TEST(Robust2HopTest, HeavyTailedSessionChurnStaysExact) {
  dynamics::SessionChurnParams sp;
  sp.n = 24;
  sp.rounds = 150;
  sp.seed = 42;
  dynamics::SessionChurnWorkload wl(sp);
  auto sim = make_sim(sp.n);
  run_audited(sim, wl, 5000, core::audit_robust2hop);
  EXPECT_LE(sim.metrics().amortized_sup(), 3.0);
}

}  // namespace
}  // namespace dynsub
