// Tests for trace recording / replay, plus the Remark 2 pattern-membership
// query layer on the Lemma 1 structure.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "baseline/full2hop.hpp"
#include "core/audit.hpp"
#include "core/triangle.hpp"
#include "detect/session.hpp"
#include "dynamics/lb_membership.hpp"
#include "dynamics/random_churn.hpp"
#include "harness/trace_replay.hpp"
#include "net/simulator.hpp"
#include "common/rng.hpp"
#include "net/trace.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {


// ---------------------------------------------------------------- trace ----

TEST(TraceTest, RoundTripPreservesEveryRound) {
  std::vector<std::vector<EdgeEvent>> rounds{
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(2, 3)},
      {},
      {EdgeEvent::remove(0, 1)},
      {},
  };
  std::ostringstream os;
  net::write_trace(os, rounds);
  std::istringstream is(os.str());
  const auto back = net::read_trace(is);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, rounds);
}

TEST(TraceTest, ParsesCommentsAndEmptyRounds) {
  std::istringstream is("# header\n+0:1 +1:2\n\n-0:1\n");
  const auto rounds = net::read_trace(is);
  ASSERT_TRUE(rounds.has_value());
  ASSERT_EQ(rounds->size(), 3u);
  EXPECT_EQ((*rounds)[0].size(), 2u);
  EXPECT_TRUE((*rounds)[1].empty());
  EXPECT_EQ((*rounds)[2][0].kind, EventKind::kDelete);
}

TEST(TraceTest, RejectsMalformedInput) {
  std::string error;
  for (const char* bad :
       {"*0:1\n", "+01\n", "+0:\n", "+:1\n", "+3:3\n", "+0:1x\n",
        // signs and hex smuggled past a naive stoul-based parser:
        "+-1:2\n", "+1:-2\n", "+1:+2\n", "+0x1:2\n",
        // out-of-range node ids (NodeId is 32-bit):
        "+0:4294967296\n", "+18446744073709551616:1\n",
        "+99999999999999999999:1\n"}) {
    std::istringstream is(bad);
    EXPECT_FALSE(net::read_trace(is, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(TraceTest, AcceptsMaxNodeIdAndErrorsNameTheLine) {
  {
    std::istringstream is("+0:4294967295\n");
    const auto rounds = net::read_trace(is);
    ASSERT_TRUE(rounds.has_value());
    EXPECT_EQ((*rounds)[0][0].edge.hi(), 4294967295u);
  }
  {
    // The failing line number (1-based, comments counted) is in the error.
    std::istringstream is("+0:1\n# comment\n\n+9:9\n");
    std::string error;
    EXPECT_FALSE(net::read_trace(is, &error).has_value());
    EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  }
}

TEST(TraceTest, FuzzRoundTripRandomBatches) {
  // Property: write_trace followed by read_trace is the identity on any
  // vector of event batches (including empty rounds, duplicate edges in a
  // batch, and ids spanning the whole 32-bit range).
  Rng rng(0xF00D5EED);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t n_rounds = rng.next_below(12);
    std::vector<std::vector<EdgeEvent>> rounds(n_rounds);
    for (auto& batch : rounds) {
      const std::size_t m = rng.next_below(8);
      for (std::size_t i = 0; i < m; ++i) {
        const bool huge = rng.next_bool(0.1);
        const std::uint64_t bound = huge ? 0xFFFFFFFFull : 1000ull;
        const NodeId a = static_cast<NodeId>(rng.next_below(bound));
        NodeId b = static_cast<NodeId>(rng.next_below(bound));
        while (b == a) b = static_cast<NodeId>(rng.next_below(bound) + 1);
        batch.push_back({Edge(a, b), rng.next_bool(0.5)
                                         ? EventKind::kInsert
                                         : EventKind::kDelete});
      }
    }
    std::ostringstream os;
    net::write_trace(os, rounds);
    std::istringstream is(os.str());
    std::string error;
    const auto back = net::read_trace(is, &error);
    ASSERT_TRUE(back.has_value()) << "iter " << iter << ": " << error;
    EXPECT_EQ(*back, rounds) << "iter " << iter;
  }
}

TEST(TraceTest, FuzzMutatedTracesNeverCrashTheParser) {
  // Corrupt a valid trace one character at a time: the parser must either
  // accept (some mutations stay well-formed) or fail cleanly with a
  // message -- never crash or hang.
  const std::string good = "+0:1 +2:3\n\n-0:1 +1:4\n+3:4\n";
  Rng rng(0xBADF00D);
  const std::string_view alphabet = "+-0123456789: #x\n";
  for (int iter = 0; iter < 300; ++iter) {
    const std::string mutated =
        testing::mutate_one_char(rng, good, alphabet);
    std::istringstream is(mutated);
    std::string error;
    const auto result = net::read_trace(is, &error);
    if (!result.has_value()) {
      EXPECT_FALSE(error.empty()) << "mutation '" << mutated << "'";
    }
  }
}

TEST(TraceTest, RecordedAdaptiveAdversaryReplaysIdentically) {
  // Record the (adaptive) Theorem 2 adversary against the triangle
  // structure, then replay the trace against a fresh simulator: the
  // metrics must match exactly.
  dynamics::MembershipLbParams mp;
  mp.pattern = dynamics::pattern_diamond();
  mp.t = 6;
  dynamics::MembershipLbAdversary adversary(mp);
  net::RecordingWorkload recorder(adversary);

  net::Simulator live(adversary.nodes_required(),
                      net::store_of<core::TriangleNode>());
  net::run_workload(live, recorder, 100000);

  // Round-trip the trace through the text format.
  std::ostringstream os;
  net::write_trace(os, recorder.rounds());
  std::istringstream is(os.str());
  const auto rounds = net::read_trace(is);
  ASSERT_TRUE(rounds.has_value());

  net::Simulator replayed(adversary.nodes_required(),
                          net::store_of<core::TriangleNode>());
  net::ScriptedWorkload script(*rounds);
  net::run_workload(replayed, script, 100000);

  EXPECT_EQ(live.metrics().changes(), replayed.metrics().changes());
  EXPECT_EQ(live.metrics().inconsistent_rounds(),
            replayed.metrics().inconsistent_rounds());
  EXPECT_EQ(live.metrics().messages(), replayed.metrics().messages());
  EXPECT_EQ(live.graph().edges(), replayed.graph().edges());
}

TEST(TraceTest, RecorderCapturesRandomChurnExactly) {
  dynamics::RandomChurnParams cp;
  cp.n = 10;
  cp.target_edges = 15;
  cp.max_changes = 4;
  cp.rounds = 40;
  cp.seed = 17;
  dynamics::RandomChurnWorkload wl(cp);
  net::RecordingWorkload recorder(wl);
  net::Simulator sim(cp.n, net::store_of<core::TriangleNode>());
  net::run_workload(sim, recorder, 100000);
  std::size_t total = 0;
  for (const auto& r : recorder.rounds()) total += r.size();
  EXPECT_EQ(total, sim.metrics().changes());
}

// --------------------------------------------------------- replay loader ----

// Writes `text` to a fresh file under the test temp dir; returns its path.
std::string write_trace_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "trace_test_" + name;
  std::ofstream(path) << text;
  return path;
}

// Opens a triangle replay session of the trace at `path` with --n `n`;
// returns the refusal reason, or "" when the session opened.
std::string replay_error(const std::string& path, std::size_t n = 0) {
  detect::SessionOptions opts;
  opts.n = n;
  std::string error;
  const auto session = harness::open_trace_replay(path, opts, &error);
  EXPECT_EQ(session.has_value(), error.empty()) << error;
  return error;
}

TEST(TraceReplayTest, SizesTheSimulatorFromTheHeader) {
  const std::string path =
      write_trace_file("sized", "# n=10\n+0:1 +1:2\n\n-0:1\n");
  std::string error;
  const auto session = harness::open_trace_replay(path, {}, &error);
  ASSERT_TRUE(session.has_value()) << error;
  EXPECT_EQ(session->nodes(), 10u);  // idle top ids 3..9 included
}

TEST(TraceReplayTest, RefusesACorruptHeader) {
  const std::string path = write_trace_file("corrupt", "# n=banana\n+0:1\n");
  EXPECT_NE(replay_error(path).find("corrupt trace header '# n=banana'"),
            std::string::npos);
  const std::string zero = write_trace_file("zero", "# n=0\n+0:1\n");
  EXPECT_NE(replay_error(zero).find("corrupt trace header"),
            std::string::npos);
}

TEST(TraceReplayTest, RefusesAnNFlagThatDisagreesWithTheHeader) {
  const std::string path = write_trace_file("mismatch", "# n=8\n+0:1\n");
  EXPECT_NE(replay_error(path, 9).find("recorded at n=8 but --n 9"),
            std::string::npos);
  EXPECT_EQ(replay_error(path, 8), "");  // agreeing is fine
}

TEST(TraceReplayTest, RefusesANodeIdBeyondTheHeader) {
  const std::string path = write_trace_file("beyond", "# n=4\n+0:1\n+2:7\n");
  EXPECT_NE(replay_error(path).find("reference node 7 but the header says "
                                    "n=4"),
            std::string::npos);
}

// ----------------------------------------------- Remark 2 pattern query ----

/// Builds a stable graph and returns a simulator of FullTwoHopNodes
/// (heap-allocated: Simulator is pinned by the parallel engine's tasks).
std::unique_ptr<net::Simulator> stable_graph(
    std::size_t n, std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  auto sim = std::make_unique<net::Simulator>(
      n, net::store_of<baseline::FullTwoHopNode>());
  std::vector<EdgeEvent> batch;
  for (const auto& [a, b] : edges) batch.push_back(EdgeEvent::insert(a, b));
  sim->step(batch);
  sim->run_until_stable(100000);
  return sim;
}

TEST(PatternQueryTest, DiamondMembership) {
  // Diamond on {0,1,2,3}: all edges but {0,1}.
  auto sim = stable_graph(
      6, {{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  const auto& node =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(0));
  const auto pat = dynamics::pattern_diamond();
  const NodeId verts[] = {0, 1, 2, 3};  // a=0, b=1, core 2,3
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kTrue);
  // Adding the {a,b} edge breaks *induced* membership.
  sim->step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  sim->run_until_stable(100000);
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kFalse);
}

TEST(PatternQueryTest, P3MembershipFromEveryVertex) {
  auto sim = stable_graph(5, {{0, 2}, {2, 1}});
  const auto pat = dynamics::pattern_p3();  // a=0, b=1, middle=2
  const NodeId verts[] = {0, 1, 2};
  for (NodeId v : {0u, 1u, 2u}) {
    const auto& node =
        dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(v));
    EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kTrue)
        << "v=" << v;
  }
  // A non-member cannot claim membership (vertices must contain self).
  const auto& node0 =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(0));
  const NodeId wrong[] = {0, 1, 3};  // 3 is not the middle
  EXPECT_EQ(node0.query_pattern(wrong, pat.edges), net::Answer::kFalse);
}

TEST(PatternQueryTest, C4MembershipAndRotation) {
  auto sim = stable_graph(6, {{0, 2}, {2, 1}, {1, 3}, {3, 0}});
  const auto pat = dynamics::pattern_c4();  // 0-2-1-3-0
  const NodeId verts[] = {0, 1, 2, 3};
  const auto& node =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(0));
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kTrue);
  // Break one cycle edge: membership gone.
  sim->step(std::vector<EdgeEvent>{EdgeEvent::remove(1, 3)});
  sim->run_until_stable(100000);
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kFalse);
}

TEST(PatternQueryTest, InconsistentWhileUpdating) {
  net::Simulator sim(4, net::store_of<baseline::FullTwoHopNode>());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 2)});
  const auto& node =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim.node(0));
  const auto pat = dynamics::pattern_p3();
  const NodeId verts[] = {0, 1, 2};
  EXPECT_EQ(node.query_pattern(verts, pat.edges),
            net::Answer::kInconsistent);
}

}  // namespace
}  // namespace dynsub
