// Theorem 5 tests: 4-cycle and 5-cycle listing over the robust 3-hop
// structure.  The guarantee is listing, not membership: for every cycle of
// G_{i-1} whose nodes are all consistent, at least one of them must answer
// true; and a consistent node answering true implies the cycle existed.
#include <gtest/gtest.h>

#include <array>

#include "core/audit.hpp"
#include "core/robust3hop.hpp"
#include "dynamics/planted.hpp"
#include "dynamics/random_churn.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

using core::Robust3HopNode;
using testing::run_audited;
using testing::run_script_audited;

net::Simulator make_sim(std::size_t n) {
  return net::Simulator(n, net::store_of<Robust3HopNode>());
}

/// Queries every node of the cycle; returns how many answer true (and
/// asserts none is inconsistent).
template <std::size_t K>
int count_reporters(const net::Simulator& sim,
                    const std::array<NodeId, K>& cycle) {
  int reporters = 0;
  for (NodeId x : cycle) {
    const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(x));
    const auto ans = node.query_cycle(cycle);
    EXPECT_NE(ans, net::Answer::kInconsistent) << "node " << x;
    reporters += (ans == net::Answer::kTrue);
  }
  return reporters;
}

TEST(CycleListingTest, FourCycleListedUnderAllInsertionOrders) {
  // All 24 permutations of the 4 cycle edges: at least one node must list
  // the cycle -- including the paper's adversarial order {v,u}, {w,x},
  // {v,x}, {u,w} where no robust 2-hop neighborhood contains it.
  const std::array<Edge, 4> edges{Edge(0, 1), Edge(1, 2), Edge(2, 3),
                                  Edge(3, 0)};
  std::array<int, 4> perm{0, 1, 2, 3};
  int tested = 0;
  do {
    auto sim = make_sim(4);
    std::vector<std::vector<EdgeEvent>> script;
    for (int idx : perm) {
      script.push_back({EdgeEvent{edges[idx], EventKind::kInsert}});
    }
    run_script_audited(sim, script, 64, core::audit_cycle_listing);
    const std::array<NodeId, 4> cycle{0, 1, 2, 3};
    EXPECT_GE(count_reporters(sim, cycle), 1)
        << "perm " << perm[0] << perm[1] << perm[2] << perm[3];
    ++tested;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(tested, 24);
}

TEST(CycleListingTest, PaperAdversarialOrderNeedsThreeHops) {
  // Order {0,1}, {2,3}, {0,3}, {1,2}: the newest edge {1,2} closes the
  // cycle "far" from 3 and 0; the paper notes no robust 2-hop neighborhood
  // contains the cycle, but the robust 3-hop of the right node does.
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(2, 3)},
                      {EdgeEvent::insert(0, 3)},
                      {EdgeEvent::insert(1, 2)}},
                     64, core::audit_cycle_listing);
  const std::array<NodeId, 4> cycle{0, 1, 2, 3};
  EXPECT_GE(count_reporters(sim, cycle), 1);
}

TEST(CycleListingTest, FiveCycleListedUnderRotatedOrders) {
  // 5-cycles are never inside any robust 2-hop neighborhood; rotate the
  // insertion order so every edge takes a turn being newest.
  const std::array<Edge, 5> edges{Edge(0, 1), Edge(1, 2), Edge(2, 3),
                                  Edge(3, 4), Edge(4, 0)};
  for (int rot = 0; rot < 5; ++rot) {
    auto sim = make_sim(5);
    std::vector<std::vector<EdgeEvent>> script;
    for (int i = 0; i < 5; ++i) {
      script.push_back(
          {EdgeEvent{edges[(i + rot) % 5], EventKind::kInsert}});
    }
    run_script_audited(sim, script, 64, core::audit_cycle_listing);
    const std::array<NodeId, 5> cycle{0, 1, 2, 3, 4};
    EXPECT_GE(count_reporters(sim, cycle), 1) << "rot " << rot;
  }
}

TEST(CycleListingTest, BrokenCycleIsNotReported) {
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2)},
                      {EdgeEvent::insert(2, 3)},
                      {EdgeEvent::insert(3, 0)},
                      {},
                      {},
                      {EdgeEvent::remove(1, 2)},
                      {},
                      {},
                      {}},
                     64, core::audit_cycle_listing);
  const std::array<NodeId, 4> cycle{0, 1, 2, 3};
  EXPECT_EQ(count_reporters(sim, cycle), 0);
}

TEST(CycleListingTest, LocalEnumerationFindsTheCycle) {
  auto sim = make_sim(6);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2)},
                      {EdgeEvent::insert(2, 3)},
                      {EdgeEvent::insert(3, 0)}},
                     64, core::audit_cycle_listing);
  // The node opposite the newest edge has the whole cycle in its set.
  bool someone_lists = false;
  for (NodeId v = 0; v < 4; ++v) {
    const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(v));
    someone_lists |= !node.list_4cycles().empty();
  }
  EXPECT_TRUE(someone_lists);
}

// ----------------------------------------------------- property sweep ----

struct SweepCase {
  std::size_t n;
  std::size_t k;  // planted cycle length
  std::uint64_t seed;
};

class CycleSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CycleSweep, ListingGuaranteeUnderPlantedCycleChurn) {
  const auto& p = GetParam();
  dynamics::PlantedParams pp;
  pp.n = p.n;
  pp.k = p.k;
  pp.plants = 2;
  pp.noise_per_round = 1;
  pp.rebuild_period = 10 + p.k;
  pp.rounds = 120;
  pp.seed = p.seed;
  dynamics::PlantedCycleWorkload wl(pp);
  auto sim = make_sim(p.n);
  run_audited(sim, wl, 5000, core::audit_robust3hop_and_cycles);
  EXPECT_LE(sim.metrics().amortized_sup(), 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    Planted, CycleSweep,
    ::testing::Values(SweepCase{10, 4, 41}, SweepCase{10, 5, 42},
                      SweepCase{14, 4, 43}, SweepCase{14, 5, 44},
                      SweepCase{18, 4, 45}, SweepCase{18, 5, 46}));

TEST(CycleListingTest, RandomChurnListingGuarantee) {
  dynamics::RandomChurnParams cp;
  cp.n = 12;
  cp.target_edges = 20;
  cp.max_changes = 4;
  cp.rounds = 100;
  cp.seed = 47;
  dynamics::RandomChurnWorkload wl(cp);
  auto sim = make_sim(cp.n);
  run_audited(sim, wl, 5000, core::audit_cycle_listing);
}

}  // namespace
}  // namespace dynsub
