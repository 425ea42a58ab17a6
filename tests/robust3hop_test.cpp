// Theorem 6 tests: the robust 3-hop neighborhood.  The maintained set S~_v
// must satisfy the paper's sandwich at every consistent node:
//   R^{v,2}_i u (R^{v,3}_{i-1} \ R^{v,2}_{i-1})  subset-of  S~_v
//   S~_v  subset-of  E^{v,2}_i u (E^{v,3}_{i-1} \ E^{v,2}_{i-1}),
// across scripted path scenarios and random churn, in O(1) amortized rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/audit.hpp"
#include "core/robust3hop.hpp"
#include "dynamics/flicker.hpp"
#include "dynamics/random_churn.hpp"
#include "dynamics/sessions.hpp"
#include "net/faults.hpp"
#include "oracle/subgraphs.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

using core::Robust3HopNode;
using testing::run_audited;
using testing::run_script_audited;

net::Simulator make_sim(std::size_t n) {
  return net::Simulator(n, net::store_of<Robust3HopNode>());
}

TEST(Robust3HopTest, LearnsAscendingPath) {
  // 0-1-2-3 inserted in ascending time order: all three edges robust for 0.
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2)},
                      {EdgeEvent::insert(2, 3)}},
                     48, core::audit_robust3hop);
  const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(0, 1)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kTrue);
}

TEST(Robust3HopTest, DescendingPathIsNotRobust) {
  // Inserted far-to-near: nothing beyond the incident edge is promised,
  // and the implementation indeed does not know the far edges.
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(2, 3)},
                      {EdgeEvent::insert(1, 2)},
                      {EdgeEvent::insert(0, 1)}},
                     48, core::audit_robust3hop);
  const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(0, 1)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kFalse);
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kFalse);
}

TEST(Robust3HopTest, DeletionPropagatesThreeHops) {
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2)},
                      {EdgeEvent::insert(2, 3)},
                      {},
                      {},
                      {EdgeEvent::remove(2, 3)}},
                     48, core::audit_robust3hop);
  const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kFalse);
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kTrue);
}

TEST(Robust3HopTest, MidPathDeletionSeversKnowledge) {
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2)},
                      {EdgeEvent::insert(2, 3)},
                      {},
                      {},
                      {EdgeEvent::remove(1, 2)}},
                     48, core::audit_robust3hop);
  const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(1, 2)), net::Answer::kFalse);
  // {2,3} left the 3-hop neighborhood entirely -> must be false too.
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kFalse);
}

TEST(Robust3HopTest, AlternatePathKeepsEdgeAlive) {
  // Two discovery paths to {2,3}: 0-1-2-3 and 0-4-2-3; severing one leaves
  // the other.
  auto sim = make_sim(5);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1), EdgeEvent::insert(0, 4)},
                      {EdgeEvent::insert(1, 2), EdgeEvent::insert(4, 2)},
                      {EdgeEvent::insert(2, 3)},
                      {},
                      {},
                      {EdgeEvent::remove(0, 1)}},
                     64, core::audit_robust3hop);
  const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(2, 3)), net::Answer::kTrue);
  EXPECT_EQ(node.query_edge(Edge(4, 2)), net::Answer::kTrue);
  // {1,2} is still within E^{0,3} via 0-4-2-1, so the structure may keep
  // it (it does, through the surviving discovery path) -- the sandwich
  // audit run every round is the binding check here.
}

TEST(Robust3HopTest, PathTableRecordsPrefixes) {
  auto sim = make_sim(4);
  run_script_audited(sim,
                     {{EdgeEvent::insert(0, 1)},
                      {EdgeEvent::insert(1, 2)},
                      {EdgeEvent::insert(2, 3)}},
                     48, core::audit_robust3hop);
  const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(0));
  std::vector<core::PathKey> ending_23;
  for (const core::PathKey& pk : node.paths()) {
    if (pk.last_edge(0) == Edge(2, 3)) ending_23.push_back(pk);
  }
  ASSERT_EQ(ending_23.size(), 1u);
  const core::PathKey& pk = ending_23.front();
  EXPECT_EQ(pk.length(), 3u);
  EXPECT_EQ(pk.hops[0], 1u);
  EXPECT_EQ(pk.hops[1], 2u);
  EXPECT_EQ(pk.hops[2], 3u);
  EXPECT_TRUE(pk.contains(0, Edge(1, 2)));
  EXPECT_FALSE(pk.contains(0, Edge(0, 3)));
}

TEST(Robust3HopTest, InconsistentWhileUpdating) {
  auto sim = make_sim(3);
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(0));
  EXPECT_EQ(node.query_edge(Edge(0, 1)), net::Answer::kInconsistent);
  sim.run_until_stable(32);
  EXPECT_EQ(node.query_edge(Edge(0, 1)), net::Answer::kTrue);
}

// ---------------------------------------------- chain-scoped deletion ----

/// Node 0 with neighbors A = 1 and B = 2, fed messages by hand.  Both
/// chains carry the far edges {1,3} and {3,4}:
///   chain A: [1], [1,3], [1,3,4], [1,4], [1,4,3]
///   chain B: [2], [2,3], [2,3,1], [2,3,4]
class ChainScopedDeletion : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::array<EdgeEvent, 2> own{EdgeEvent::insert(0, 1),
                                       EdgeEvent::insert(0, 2)};
    net::Outbox out;
    node_.react_and_send(ctx_, own, out);
    for (const std::array<NodeId, 3>& path :
         {std::array<NodeId, 3>{1, 3, 4}, std::array<NodeId, 3>{1, 4, 3},
          std::array<NodeId, 3>{2, 3, 1}, std::array<NodeId, 3>{2, 3, 4}}) {
      deliver(path[0], net::WireMessage::path_insert(path));
    }
    ASSERT_EQ(paths(), (std::vector<std::string>{
                           "1", "1-3", "1-3-4", "1-4", "1-4-3", "2", "2-3",
                           "2-3-1", "2-3-4"}));
  }

  void deliver(NodeId from, net::WireMessage msg) {
    const std::array<net::Inbox::Item, 1> items{{{from, std::move(msg)}}};
    node_.receive_and_update(ctx_, net::Inbox{items, {}, {}});
  }

  /// The node's exact discovery-path set, as sorted "h1-h2-h3" strings.
  [[nodiscard]] std::vector<std::string> paths() const {
    std::vector<std::string> out;
    for (const core::PathKey& pk : node_.paths()) {
      std::string s;
      for (std::size_t j = 0; j < pk.length(); ++j) {
        if (j > 0) s += '-';
        s += std::to_string(pk.hops[j]);
      }
      out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  const net::NodeContext ctx_{.self = 0, .n = 5, .round = 1};
  Robust3HopNode node_{0, 5};
};

TEST_F(ChainScopedDeletion, OwnRelayKillsOnlyItsChainsPaths) {
  // A deleted {1,3} and relays it at l = 0: A's paths through {1,3} die,
  // chain B's [2,3,1] survives, and so does the edge.
  deliver(1, net::WireMessage::path_delete(Edge(1, 3), 0, kNoNode));
  EXPECT_EQ(paths(), (std::vector<std::string>{"1", "1-4", "1-4-3", "2",
                                               "2-3", "2-3-1", "2-3-4"}));
  EXPECT_TRUE(node_.known_edges().contains(Edge(1, 3)));
  EXPECT_TRUE(node_.known_edges().contains(Edge(3, 4)));
}

TEST_F(ChainScopedDeletion, ForwardedRelayKillsOnlyItsViaPaths) {
  // 3 deleted {3,4}; A forwards the relay it got from 3 (l = 1, via 3).
  // Only [1,3,*] paths through {3,4} die: A's [1,4,3] and chain B's
  // [2,3,4] survive.
  deliver(1, net::WireMessage::path_delete(Edge(3, 4), 1, 3));
  EXPECT_EQ(paths(),
            (std::vector<std::string>{"1", "1-3", "1-4", "1-4-3", "2", "2-3",
                                      "2-3-1", "2-3-4"}));
  // The same relay through via 4 kills [1,4,3]; B still holds the edge.
  deliver(1, net::WireMessage::path_delete(Edge(3, 4), 1, 4));
  EXPECT_EQ(paths(), (std::vector<std::string>{"1", "1-3", "1-4", "2", "2-3",
                                               "2-3-1", "2-3-4"}));
  EXPECT_TRUE(node_.known_edges().contains(Edge(3, 4)));
  // B forwards the relay it got from 3: the last witness dies.
  deliver(2, net::WireMessage::path_delete(Edge(3, 4), 1, 3));
  EXPECT_EQ(paths(), (std::vector<std::string>{"1", "1-3", "1-4", "2", "2-3",
                                               "2-3-1"}));
  EXPECT_FALSE(node_.known_edges().contains(Edge(3, 4)));
}

// --------------------------------------------------- path-set invariants ----

/// The path set is the node's only per-edge state, so its shape is checked
/// directly, at every node after every round:
///   (a) paths() is prefix-closed;
///   (b) at a consistent node, query_edge(e) is kTrue exactly when e is in
///       known_edges(), over every edge of G_i, every known edge and random
///       absent pairs;
///   (c) at a consistent node, query_cycle answers kTrue on a 4- or 5-cycle
///       of G_i through the node exactly when the node lists it, and on
///       every cycle the node lists.
/// Returns the first violation.
std::optional<std::string> path_set_violation(const net::Simulator& sim,
                                              Rng& rng) {
  const auto& g = sim.graph();
  const auto truth4 = oracle::all_4_cycles(g);
  const auto truth5 = oracle::all_5_cycles(g);
  for (NodeId v = 0; v < sim.node_count(); ++v) {
    const auto fail = [&](const auto&... what) {
      std::ostringstream os;
      os << "round " << sim.round() << " node " << v << ": ";
      (os << ... << what);
      return std::optional<std::string>(os.str());
    };
    const auto& node = dynamic_cast<const Robust3HopNode&>(sim.node(v));
    const FlatSet<core::PathKey>& paths = node.paths();
    for (const core::PathKey& pk : paths) {
      const std::size_t len = pk.length();
      if (len < 2) continue;
      core::PathKey prefix = pk;
      prefix.hops[len - 1] = kNoNode;
      if (!paths.contains(prefix)) {
        return fail("path ", pk.hops[0], '-', pk.hops[1], '-', pk.hops[2],
                    " is stored without its prefix");
      }
    }
    if (!sim.consistency()[v]) continue;

    const FlatSet<Edge> known = node.known_edges();
    const auto edge_disagrees = [&](Edge e) {
      return (node.query_edge(e) == net::Answer::kTrue) != known.contains(e);
    };
    std::vector<Edge> probes;
    for (const auto& [e, t] : g.edges()) {
      (void)t;
      probes.push_back(e);
    }
    probes.insert(probes.end(), known.begin(), known.end());
    const auto n = static_cast<std::uint64_t>(sim.node_count());
    for (int i = 0; i < 16; ++i) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      if (a != b && !g.has_edge(Edge(a, b))) probes.push_back(Edge(a, b));
    }
    for (const Edge& e : probes) {
      if (edge_disagrees(e)) {
        return fail("query_edge", e, " disagrees with known_edges()");
      }
    }

    const auto cycle_violation = [&](const auto& truth, const auto& listed) {
      const auto says_true = [&](const auto& c) {
        return node.query_cycle(std::span<const NodeId>(c.v)) ==
               net::Answer::kTrue;
      };
      for (const auto& c : truth) {
        if (std::find(c.v.begin(), c.v.end(), v) == c.v.end()) continue;
        if (says_true(c) !=
            std::binary_search(listed.begin(), listed.end(), c)) {
          return fail("query_cycle disagrees with the listing on a ",
                      c.v.size(), "-cycle of G_i");
        }
      }
      for (const auto& c : listed) {
        if (!says_true(c)) {
          return fail("a listed ", c.v.size(), "-cycle answers false");
        }
      }
      return std::optional<std::string>();
    };
    if (auto err = cycle_violation(truth4, node.list_4cycles())) return err;
    if (auto err = cycle_violation(truth5, node.list_5cycles())) return err;
  }
  return std::nullopt;
}

/// Drives `sim` through `wl`, checking the path set after every round.
void run_checking_path_set(net::Simulator& sim, net::Workload& wl) {
  Rng rng(0x3F3Fu);
  run_audited(sim, wl, 5000, [&rng](const net::Simulator& s) {
    return path_set_violation(s, rng);
  });
}

TEST(Robust3HopPathSet, InvariantsHoldUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 20;
  cp.target_edges = 36;
  cp.max_changes = 6;
  cp.rounds = 120;
  cp.seed = 0x3A1u;
  dynamics::RandomChurnWorkload wl(cp);
  auto sim = make_sim(cp.n);
  run_checking_path_set(sim, wl);
}

TEST(Robust3HopPathSet, InvariantsHoldUnderTheFlickerSchedule) {
  // The Sec 1.3 adversary, three times over: triangle edges deleted and
  // re-inserted a round later while junk insertions congest the queues.
  net::ScriptedWorkload wl(
      dynamics::make_repeated_flicker_scenario(12, 3).script);
  auto sim = make_sim(12);
  run_checking_path_set(sim, wl);
}

TEST(Robust3HopPathSet, InvariantsHoldThroughAKillLaneOutageAndRecovery) {
  // Every batch of the one lane is lost in rounds 6..16; the engine marks
  // the destinations degraded and recovers them with flicker churn.
  net::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 9;
  plan.kill_lane = 0;
  plan.kill_from = 6;
  plan.kill_until = 16;
  plan.max_retries = 1;
  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 48;
  cp.max_changes = 4;
  cp.rounds = 40;
  cp.seed = 0xC4u;
  dynamics::RandomChurnWorkload wl(cp);
  net::Simulator sim(cp.n, net::store_of<Robust3HopNode>(),
                     {.faults = plan});
  run_checking_path_set(sim, wl);
  EXPECT_GT(sim.metrics().transport().lost_batches, 0u);
  EXPECT_GT(sim.metrics().transport().recovery_events, 0u);
}

// ----------------------------------------------------- property sweep ----

struct SweepCase {
  std::size_t n;
  std::size_t target_edges;
  std::size_t max_changes;
  std::uint64_t seed;
};

class Robust3HopSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(Robust3HopSweep, SandwichHoldsUnderRandomChurn) {
  const auto& p = GetParam();
  auto sim = make_sim(p.n);
  dynamics::RandomChurnParams cp;
  cp.n = p.n;
  cp.target_edges = p.target_edges;
  cp.max_changes = p.max_changes;
  cp.rounds = 100;
  cp.seed = p.seed;
  dynamics::RandomChurnWorkload wl(cp);
  run_audited(sim, wl, 5000, core::audit_robust3hop);
  EXPECT_LE(sim.metrics().amortized_sup(), 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, Robust3HopSweep,
    ::testing::Values(SweepCase{8, 10, 3, 31}, SweepCase{8, 12, 3, 32},
                      SweepCase{12, 16, 4, 33}, SweepCase{12, 20, 5, 34},
                      SweepCase{16, 24, 6, 35}, SweepCase{16, 20, 8, 36},
                      SweepCase{20, 30, 8, 37}, SweepCase{24, 36, 10, 38}));

TEST(Robust3HopTest, HeavyTailedSessionChurn) {
  dynamics::SessionChurnParams sp;
  sp.n = 20;
  sp.rounds = 120;
  sp.seed = 7;
  dynamics::SessionChurnWorkload wl(sp);
  auto sim = make_sim(sp.n);
  run_audited(sim, wl, 5000, core::audit_robust3hop);
}

}  // namespace
}  // namespace dynsub
