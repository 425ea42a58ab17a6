// Corollary 1 tests: k-clique membership listing on top of the triangle
// structure.  A node that knows all triangles through itself knows every
// edge of every clique it belongs to, so listing is a pure local
// computation -- these tests check the query layer and the exact-listing
// guarantee for k in {3,4,5} against the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/audit.hpp"
#include "core/triangle.hpp"
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

/// One insert per round building the complete graph on `members`.
std::vector<std::vector<EdgeEvent>> clique_script(
    std::span<const NodeId> members) {
  std::vector<std::vector<EdgeEvent>> script;
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      script.push_back({EdgeEvent::insert(members[i], members[j])});
    }
  }
  return script;
}

TEST(CliqueTest, EveryMemberListsTheK4) {
  const std::array<NodeId, 4> members{0, 1, 2, 3};
  auto sim = make_sim(5);
  run_script_audited(sim, clique_script(members), 48, core::audit_triangle);
  for (NodeId v : members) {
    const auto& node = dynamic_cast<const TriangleNode&>(sim.node(v));
    std::vector<NodeId> others;
    for (NodeId u : members) {
      if (u != v) others.push_back(u);
    }
    EXPECT_EQ(node.query_clique(others), net::Answer::kTrue) << "v=" << v;
    EXPECT_EQ(node.list_cliques(4).size(), 1u) << "v=" << v;
    // Four triangles through each member of a K4... through one node: C(3,2)=3.
    EXPECT_EQ(node.list_cliques(3).size(), 3u) << "v=" << v;
  }
  // A non-member answers false.
  const auto& outside = dynamic_cast<const TriangleNode&>(sim.node(4));
  const std::array<NodeId, 3> probe{0, 1, 2};
  EXPECT_EQ(outside.query_clique(probe), net::Answer::kFalse);
}

TEST(CliqueTest, K5ListingExactForAllMembers) {
  const std::array<NodeId, 5> members{0, 2, 4, 6, 7};
  auto sim = make_sim(8);
  run_script_audited(sim, clique_script(members), 64, core::audit_triangle);
  auto err = core::audit_cliques(sim, 5);
  EXPECT_FALSE(err.has_value()) << *err;
  const auto& node = dynamic_cast<const TriangleNode&>(sim.node(0));
  EXPECT_EQ(node.list_cliques(5).size(), 1u);
  EXPECT_EQ(node.list_cliques(4).size(), 4u);  // C(4,3) sub-cliques
}

TEST(CliqueTest, RemovingOneEdgeDowngradesTheClique) {
  const std::array<NodeId, 4> members{0, 1, 2, 3};
  auto sim = make_sim(4);
  auto script = clique_script(members);
  script.push_back({});
  script.push_back({EdgeEvent::remove(2, 3)});
  run_script_audited(sim, script, 48, core::audit_triangle);
  const auto& node = dynamic_cast<const TriangleNode&>(sim.node(0));
  EXPECT_TRUE(node.list_cliques(4).empty());
  // K4 minus one edge still has 2 triangles through node 0.
  EXPECT_EQ(node.list_cliques(3).size(), 2u);
  const std::array<NodeId, 3> others{1, 2, 3};
  EXPECT_EQ(node.query_clique(others), net::Answer::kFalse);
}

TEST(CliqueTest, QueryRejectsDuplicatesAndNonNeighbors) {
  auto sim = make_sim(4);
  run_script_audited(sim, clique_script(std::array<NodeId, 3>{0, 1, 2}), 32,
                     core::audit_triangle);
  const auto& node = dynamic_cast<const TriangleNode&>(sim.node(0));
  const std::array<NodeId, 2> dup{1, 1};
  EXPECT_EQ(node.query_clique(dup), net::Answer::kFalse);
  const std::array<NodeId, 2> nonadj{1, 3};
  EXPECT_EQ(node.query_clique(nonadj), net::Answer::kFalse);
}

struct CliqueSweepCase {
  std::size_t n;
  std::size_t k;
  std::uint64_t seed;
};

class CliqueSweep : public ::testing::TestWithParam<CliqueSweepCase> {};

TEST_P(CliqueSweep, PlantedCliquesListedExactly) {
  const auto& p = GetParam();
  dynamics::PlantedParams pp;
  pp.n = p.n;
  pp.k = p.k;
  pp.plants = 2;
  pp.noise_per_round = 1;
  pp.rebuild_period = 4 + p.k * (p.k - 1) / 2;  // let plants complete
  pp.rounds = 140;
  pp.seed = p.seed;
  dynamics::PlantedCliqueWorkload wl(pp);
  auto sim = make_sim(p.n);
  run_audited(sim, wl, 5000, [&](const net::Simulator& s) {
    auto err = core::audit_triangle(s);
    if (err) return err;
    return core::audit_cliques(s, static_cast<int>(p.k));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Planted, CliqueSweep,
    ::testing::Values(CliqueSweepCase{12, 3, 21}, CliqueSweepCase{12, 4, 22},
                      CliqueSweepCase{16, 4, 23}, CliqueSweepCase{16, 5, 24},
                      CliqueSweepCase{20, 5, 25}, CliqueSweepCase{20, 6, 26},
                      CliqueSweepCase{24, 4, 27},
                      CliqueSweepCase{24, 6, 28}));

}  // namespace
}  // namespace dynsub
