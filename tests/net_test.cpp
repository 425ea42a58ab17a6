// Unit tests for the network substrate: message costs, routing rules,
// round anatomy, LocalView bookkeeping, and the amortized-complexity meter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/triangle.hpp"
#include "dynamics/flicker.hpp"
#include "dynamics/random_churn.hpp"
#include "net/faults.hpp"
#include "net/local_view.hpp"
#include "net/message.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "net/worker_pool.hpp"
#include "net/workload.hpp"
#include "sim_test_util.hpp"

namespace dynsub::net {
namespace {

// ------------------------------------------------------------ message ----

TEST(MessageTest, NodeIdBits) {
  EXPECT_EQ(node_id_bits(2), 1u);
  EXPECT_EQ(node_id_bits(3), 2u);
  EXPECT_EQ(node_id_bits(16), 4u);
  EXPECT_EQ(node_id_bits(17), 5u);
  EXPECT_EQ(node_id_bits(1024), 10u);
}

TEST(MessageTest, BandwidthBudgetIsLogarithmic) {
  EXPECT_EQ(bandwidth_bits(1024), 4u * 10u + 16u);
  EXPECT_LT(bandwidth_bits(1 << 20), 128u);
}

TEST(MessageTest, EveryAlgorithmMessageFitsTheBudget) {
  for (std::size_t n : {4u, 64u, 1024u, 65536u}) {
    const std::size_t budget = bandwidth_bits(n);
    EXPECT_LE(WireMessage::edge_insert(Edge(0, 1)).payload_bits(n), budget);
    EXPECT_LE(WireMessage::edge_delete(Edge(0, 1)).payload_bits(n), budget);
    EXPECT_LE(WireMessage::triangle_hint(Edge(0, 1)).payload_bits(n), budget);
    const NodeId p2[] = {0, 1, 2};
    EXPECT_LE(WireMessage::path_insert(p2).payload_bits(n), budget);
    EXPECT_LE(WireMessage::path_delete(Edge(0, 1), 2, 2).payload_bits(n),
              budget);
  }
}

TEST(MessageTest, PathInsertEncoding) {
  const NodeId verts[] = {3, 1, 4};
  const auto m = WireMessage::path_insert(verts);
  EXPECT_EQ(m.kind, WireMessage::Kind::kPathInsert);
  EXPECT_EQ(m.path_len, 2);
  EXPECT_EQ(m.nodes[0], 3u);
  EXPECT_EQ(m.nodes[2], 4u);
}

TEST(MessageTest, SmallBlobInline) {
  SmallBlob b;
  EXPECT_TRUE(b.empty());
  b.assign(3, 0xab);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data()[2], 0xab);
  SmallBlob full;
  full.assign(SmallBlob::kCapacity, 0x5a);
  EXPECT_EQ(full.size(), SmallBlob::kCapacity);
  EXPECT_EQ(full.data()[SmallBlob::kCapacity - 1], 0x5a);
  SmallBlob copy = full;
  EXPECT_TRUE(copy == full);
  copy.assign(2, 1);
  EXPECT_FALSE(copy == full);
  // Equality reads only the live bytes, not what a shrink left behind.
  SmallBlob fresh;
  fresh.assign(2, 1);
  EXPECT_TRUE(copy == fresh);
}

// The blob lives inside the message, so a WireMessage copies as plain
// bytes and a routed Inbox::Item stays small.
TEST(MessageTest, WireMessageIsTriviallyCopyableAndSmall) {
  static_assert(std::is_trivially_copyable_v<WireMessage>);
  EXPECT_LE(sizeof(WireMessage), 52u);
  EXPECT_LE(sizeof(Inbox::Item), 56u);
}

TEST(MessageTest, SmallBlobOverflowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SmallBlob b;
  EXPECT_DEATH(b.resize(SmallBlob::kCapacity + 1), "kCapacity");
}

// ---------------------------------------------------------- LocalView ----

TEST(LocalViewTest, TracksIncidentEdgesAndTimestamps) {
  LocalView view(5);
  const EdgeEvent evs[] = {EdgeEvent::insert(5, 2), EdgeEvent::insert(5, 9)};
  view.apply(evs, 7);
  EXPECT_TRUE(view.has_neighbor(2));
  EXPECT_EQ(view.t(2), 7);
  EXPECT_EQ(view.degree(), 2u);
  const EdgeEvent del[] = {EdgeEvent::remove(5, 2)};
  view.apply(del, 9);
  EXPECT_FALSE(view.has_neighbor(2));
  const EdgeEvent re[] = {EdgeEvent::insert(5, 2)};
  view.apply(re, 11);
  EXPECT_EQ(view.t(2), 11);  // re-insertion refreshes the local timestamp
}

TEST(LocalViewTest, NeighborsSorted) {
  LocalView view(0);
  const EdgeEvent evs[] = {EdgeEvent::insert(0, 9), EdgeEvent::insert(0, 3),
                           EdgeEvent::insert(0, 6)};
  view.apply(evs, 1);
  EXPECT_EQ(view.neighbors(), (std::vector<NodeId>{3, 6, 9}));
}

// ------------------------------------------------- probe node program ----

/// Records everything the simulator feeds it; sends a canned message to
/// each neighbor the round after an insertion (to exercise routing).
class ProbeNode final : public NodeProgram {
 public:
  ProbeNode(NodeId self, std::size_t n) : view_(self) { (void)n; }

  void react_and_send(const NodeContext& ctx,
                      std::span<const EdgeEvent> events,
                      Outbox& out) override {
    view_.apply(events, ctx.round);
    events_seen += events.size();
    if (send_next_round) {
      for (NodeId u : view_.neighbors()) {
        out.send(u, WireMessage::edge_insert(Edge(view_.self(), u)));
      }
      send_next_round = false;
    }
    for (const auto& ev : events) {
      if (ev.kind == EventKind::kInsert) send_next_round = true;
    }
    if (declare_busy_always) out.declare_busy();
  }

  void receive_and_update(const NodeContext& ctx, const Inbox& in) override {
    (void)ctx;
    payloads_seen += in.payloads.size();
    busy_flags_seen += in.busy_neighbors.size();
    last_senders.clear();
    for (const auto& item : in.payloads) last_senders.push_back(item.from);
  }

  [[nodiscard]] bool consistent() const override { return !declare_busy_always; }

  // Active-set contract: the pending "send next round" intent is work the
  // default queue/consistency signals cannot see.
  [[nodiscard]] bool wants_to_act() const override {
    return send_next_round || NodeProgram::wants_to_act();
  }

  net::LocalView view_;
  std::size_t events_seen = 0;
  std::size_t payloads_seen = 0;
  std::size_t busy_flags_seen = 0;
  std::vector<NodeId> last_senders;
  bool send_next_round = false;
  bool declare_busy_always = false;
};

NodeFactory probe_factory() { return store_of<ProbeNode>(); }

TEST(SimulatorTest, NotifiesOnlyIncidentNodes) {
  Simulator sim(4, probe_factory());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  auto& n0 = dynamic_cast<ProbeNode&>(sim.node(0));
  auto& n2 = dynamic_cast<ProbeNode&>(sim.node(2));
  EXPECT_EQ(n0.events_seen, 1u);
  EXPECT_EQ(n2.events_seen, 0u);
}

TEST(SimulatorTest, DeliversMessagesSameRoundOverCurrentEdges) {
  Simulator sim(3, probe_factory());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  // ProbeNode sends one round after the insertion.
  sim.step({});
  auto& n1 = dynamic_cast<ProbeNode&>(sim.node(1));
  EXPECT_EQ(n1.payloads_seen, 1u);
  EXPECT_EQ(n1.last_senders, (std::vector<NodeId>{0}));
}

TEST(SimulatorTest, MessageOnDeletedLinkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A node that sends to a hardcoded destination regardless of topology
  // must trip the router check once the link is gone.
  class StaleSender final : public NodeProgram {
   public:
    StaleSender(NodeId self, std::size_t) : self_(self) {}
    void react_and_send(const NodeContext&, std::span<const EdgeEvent>,
                        Outbox& out) override {
      if (self_ == 0) out.send(1, WireMessage::edge_insert(Edge(0, 1)));
    }
    void receive_and_update(const NodeContext&, const Inbox&) override {}
    [[nodiscard]] bool consistent() const override { return true; }

   private:
    NodeId self_;
  };
  EXPECT_DEATH(
      {
        Simulator sim(2, store_of<StaleSender>());
        sim.step({});  // no edge {0,1} yet: sending is a violation
      },
      "absent link");
}

TEST(SimulatorTest, BandwidthOverrunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  class Blaster final : public NodeProgram {
   public:
    Blaster(NodeId self, std::size_t) : self_(self) {}
    void react_and_send(const NodeContext& ctx,
                        std::span<const EdgeEvent> events,
                        Outbox& out) override {
      (void)ctx;
      for (const auto& ev : events) {
        if (ev.kind != EventKind::kInsert) continue;
        WireMessage m;
        m.kind = WireMessage::Kind::kSnapshotChunk;
        m.nodes[0] = self_;
        m.aux2 = 100000;  // way over budget
        out.send(ev.edge.other(self_), std::move(m));
      }
    }
    void receive_and_update(const NodeContext&, const Inbox&) override {}
    [[nodiscard]] bool consistent() const override { return true; }

   private:
    NodeId self_;
  };
  EXPECT_DEATH(
      {
        Simulator sim(2, store_of<Blaster>());
        sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
      },
      "exceeds budget");
}

TEST(SimulatorTest, DoublePayloadOnOneLinkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  class DoubleSender final : public NodeProgram {
   public:
    DoubleSender(NodeId self, std::size_t) : self_(self) {}
    void react_and_send(const NodeContext&, std::span<const EdgeEvent> events,
                        Outbox& out) override {
      for (const auto& ev : events) {
        if (ev.kind != EventKind::kInsert) continue;
        const NodeId u = ev.edge.other(self_);
        out.send(u, WireMessage::edge_insert(ev.edge));
        out.send(u, WireMessage::edge_insert(ev.edge));
      }
    }
    void receive_and_update(const NodeContext&, const Inbox&) override {}
    [[nodiscard]] bool consistent() const override { return true; }

   private:
    NodeId self_;
  };
  EXPECT_DEATH(
      {
        Simulator sim(2, store_of<DoubleSender>());
        sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
      },
      "two payloads");
}

TEST(SimulatorTest, InvalidBatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim(3, probe_factory());
        sim.step(std::vector<EdgeEvent>{EdgeEvent::remove(0, 1)});
      },
      "not applicable");
}

TEST(SimulatorTest, PrevGraphLagsByOneRound) {
  Simulator sim(3, probe_factory());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  EXPECT_TRUE(sim.graph().has_edge(Edge(0, 1)));
  EXPECT_FALSE(sim.prev_graph().has_edge(Edge(0, 1)));
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(1, 2)});
  EXPECT_TRUE(sim.prev_graph().has_edge(Edge(0, 1)));
  EXPECT_FALSE(sim.prev_graph().has_edge(Edge(1, 2)));
}

// Describes the first difference between G_{i-1} as prev_graph() rebuilt
// it and `want`, the graph() saved one step earlier: the edges with their
// timestamps, then every neighbour list.  nullopt when they are equal.
std::optional<std::string> prev_graph_mismatch(
    const oracle::TimestampedGraph& got, const oracle::TimestampedGraph& want,
    Round round) {
  std::ostringstream os;
  os << "round " << round << ": prev_graph() ";
  if (got.node_count() != want.node_count()) {
    os << "has " << got.node_count() << " nodes, want " << want.node_count();
    return os.str();
  }
  if (got.edges().values() != want.edges().values()) {
    os << "edges or timestamps differ (" << got.edge_count() << " edges, want "
       << want.edge_count() << ")";
    return os.str();
  }
  for (NodeId v = 0; v < want.node_count(); ++v) {
    if (!std::ranges::equal(got.neighbors(v), want.neighbors(v))) {
      os << "neighbours of node " << v << " differ";
      return os.str();
    }
  }
  return std::nullopt;
}

// Drives `wl` to completion and stability, checking before the first step
// and after every step that prev_graph() equals the previous graph().
void run_checking_prev_graph(Simulator& sim, Workload& wl) {
  oracle::TimestampedGraph before = sim.graph();
  EXPECT_EQ(prev_graph_mismatch(sim.prev_graph(), before, sim.round()),
            std::nullopt);
  testing::run_audited(sim, wl, 10000, [&](const Simulator& s) {
    auto bad = prev_graph_mismatch(s.prev_graph(), before, s.round());
    before = s.graph();
    return bad;
  });
}

TEST(SimulatorTest, PrevGraphIsLastRoundsGraphUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 40;
  cp.max_changes = 6;
  cp.rounds = 80;
  cp.seed = 0x9E;
  dynamics::RandomChurnWorkload churn(cp);
  RecordingWorkload wl(churn);
  Simulator sim(cp.n, probe_factory());
  run_checking_prev_graph(sim, wl);
  std::size_t deletes = 0;
  for (const auto& batch : wl.rounds()) {
    for (const auto& ev : batch) deletes += ev.kind == EventKind::kDelete;
  }
  EXPECT_GT(deletes, 50u);  // restores, not just removed inserts
}

TEST(SimulatorTest, PrevGraphRestoresFlickeredEdgesWithTheirTimestamps) {
  // The Sec 1.3 adversary deletes a triangle edge and re-inserts it the
  // next round, three times over: every restore must bring back the
  // timestamp of the edge's latest insertion.
  ScriptedWorkload wl(dynamics::make_repeated_flicker_scenario(12, 3).script);
  Simulator sim(12, probe_factory());
  run_checking_prev_graph(sim, wl);
}

TEST(SimulatorTest, PrevGraphFollowsRecoveryFlickersUnderLoss) {
  // A lossy plan (as in transport_test's DegradedMode cases): recovery
  // prepends flicker deletes and reinserts to the workload's batches, and
  // G_{i-1} must follow the batch the engine applied.
  FaultPlan plan;
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
  Simulator sim(cp.n, store_of<core::TriangleNode>(),
                {.faults = plan});
  run_checking_prev_graph(sim, wl);
  EXPECT_GT(sim.metrics().transport().recovery_events, 0u);
}

TEST(SimulatorTest, ControlBitsReachNeighbors) {
  Simulator sim(3, probe_factory());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1),
                                  EdgeEvent::insert(1, 2)});
  auto& n0 = dynamic_cast<ProbeNode&>(sim.node(0));
  auto& n1 = dynamic_cast<ProbeNode&>(sim.node(1));
  n1.declare_busy_always = true;
  sim.step({});
  EXPECT_GE(n0.busy_flags_seen, 1u);
  // And the meter saw node 1 inconsistent.
  EXPECT_FALSE(sim.consistency()[1]);
  EXPECT_TRUE(sim.consistency()[0]);
}

// ----------------------------------------------- sparse active set ----

TEST(SimulatorTest, QuiescentRoundsHaveEmptyActiveSet) {
  Simulator sim(64, probe_factory());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  sim.step({});  // the probes send their canned payloads
  sim.step({});  // the receivers settle
  for (int i = 0; i < 3; ++i) {
    const auto r = sim.step({});
    EXPECT_EQ(sim.last_round_active(), 0u);
    EXPECT_EQ(sim.last_round_stepped(), 0u);
    EXPECT_EQ(r.messages, 0u);
    EXPECT_EQ(r.inconsistent_nodes, 0u);
  }
}

TEST(SimulatorTest, ActiveSetTouchesOnlyAffectedNodes) {
  Simulator sim(64, probe_factory());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(3, 4)});
  // Round 2: only {3, 4} carry pending sends; nobody else is stepped.
  sim.step({});
  EXPECT_EQ(sim.last_round_active(), 2u);
  for (NodeId v = 0; v < 64; ++v) {
    auto& probe = dynamic_cast<ProbeNode&>(sim.node(v));
    EXPECT_EQ(probe.events_seen, (v == 3 || v == 4) ? 1u : 0u);
  }
}

TEST(SimulatorTest, WantsToActCarriesNodesBetweenRounds) {
  Simulator sim(8, probe_factory());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  auto& n1 = dynamic_cast<ProbeNode&>(sim.node(1));
  // Round 2: 0 and 1 want to act (pending canned send) and exchange
  // payloads even though no events touch them.
  sim.step({});
  EXPECT_EQ(n1.payloads_seen, 1u);
  EXPECT_EQ(sim.last_round_active(), 2u);
}

TEST(SimulatorTest, DenseModeMatchesSparseResults) {
  Simulator sparse(6, probe_factory());
  Simulator dense(6, probe_factory(),
                  {.sparse_rounds = false});
  const std::vector<std::vector<EdgeEvent>> script{
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(1, 2)},
      {},
      {EdgeEvent::remove(0, 1)},
      {},
      {}};
  for (const auto& batch : script) {
    const auto rs = sparse.step(batch);
    const auto rd = dense.step(batch);
    EXPECT_EQ(rs, rd);
    EXPECT_EQ(sparse.consistency(), dense.consistency());
  }
  EXPECT_EQ(sparse.metrics().messages(), dense.metrics().messages());
  EXPECT_EQ(sparse.metrics().inconsistent_rounds(),
            dense.metrics().inconsistent_rounds());
}

// ------------------------------------------------------------ metrics ----

TEST(MetricsTest, AmortizedRatioAndSup) {
  Metrics m(2);
  m.record_round(1, 2, 1, 0, 0);  // 1 inconsistent round / 2 changes
  m.record_round(2, 0, 1, 0, 0);  // 2 / 2
  m.record_round(3, 0, 0, 0, 0);  // 2 / 2
  m.record_round(4, 2, 0, 0, 0);  // 2 / 4
  EXPECT_DOUBLE_EQ(m.amortized(), 0.5);
  EXPECT_DOUBLE_EQ(m.amortized_sup(), 1.0);
  EXPECT_EQ(m.inconsistent_rounds(), 2u);
  EXPECT_EQ(m.changes(), 4u);
}

TEST(MetricsTest, PerNodeAccounting) {
  Metrics m(3);
  m.record_node_change(0);
  m.record_node_change(1);
  m.record_round(1, 1, 1, 0, 0);
  m.record_node_inconsistent(0);
  m.record_round(2, 0, 1, 0, 0);
  m.record_node_inconsistent(0);
  EXPECT_DOUBLE_EQ(m.per_node_amortized_sup(), 2.0);  // node 0: 2 rounds / 1
}

TEST(MetricsTest, ZeroChangesNeverDivides) {
  // A run with no topology changes has an undefined ratio; the meter
  // reports 0 (not NaN/inf) for both the final ratio and its sup, even
  // when inconsistent rounds were observed (a paper-illegal state, but
  // the meter must not blow up on it).
  Metrics m(2);
  m.record_round(1, 0, 1, 0, 0);
  m.record_round(2, 0, 1, 0, 0);
  EXPECT_DOUBLE_EQ(m.amortized(), 0.0);
  EXPECT_DOUBLE_EQ(m.amortized_sup(), 0.0);
  EXPECT_EQ(m.inconsistent_rounds(), 2u);
  EXPECT_EQ(m.changes(), 0u);
}

TEST(MetricsTest, InconsistentRoundsBeforeFirstChangeChargeTheFirstChange) {
  // Rounds before the first change still count toward the numerator; the
  // sup only starts being taken once a change exists to divide by, so the
  // first charged point already includes the pre-change backlog.
  Metrics m(2);
  m.record_round(1, 0, 1, 0, 0);  // inconsistent, no changes yet: sup stays 0
  EXPECT_DOUBLE_EQ(m.amortized_sup(), 0.0);
  m.record_round(2, 1, 1, 0, 0);  // first change arrives: 2 / 1
  EXPECT_DOUBLE_EQ(m.amortized(), 2.0);
  EXPECT_DOUBLE_EQ(m.amortized_sup(), 2.0);
  m.record_round(3, 3, 0, 0, 0);  // ratio falls to 2/4; sup remembers 2
  EXPECT_DOUBLE_EQ(m.amortized(), 0.5);
  EXPECT_DOUBLE_EQ(m.amortized_sup(), 2.0);
}

TEST(MetricsTest, PerNodeSupIsZeroOnAllConsistentRuns) {
  // Changes without a single inconsistent observation: every per-node
  // numerator is 0, so the worst ratio is 0 -- including for nodes that
  // saw no changes at all (their denominator clamps to 1, not 0).
  Metrics m(3);
  m.record_node_change(0);
  m.record_round(1, 1, 0, 0, 0);
  m.record_round(2, 0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(m.per_node_amortized_sup(), 0.0);
  EXPECT_DOUBLE_EQ(m.amortized(), 0.0);
  EXPECT_DOUBLE_EQ(m.amortized_sup(), 0.0);
}

// ------------------------------------------------------- worker pool ----

TEST(WorkerPoolTest, SplitIsTheEnginesDeterminismContract) {
  // The engine hands the pool its slot grid and keeps one scratch outbox
  // per lane, so every slot must run exactly once, on one lane, by the
  // documented split: lane l runs [count*l/lanes, count*(l+1)/lanes),
  // lane 0 on the calling thread, and an empty range makes no call.
  struct Call {
    std::size_t lane, begin, end;
    std::thread::id thread;
  };
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t lanes : {1u, 2u, 3u, 4u, 8u}) {
    WorkerPool pool(lanes);
    ASSERT_EQ(pool.lanes(), lanes);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, lanes - 1, lanes, std::size_t{17}}) {
      std::mutex mu;
      std::vector<Call> calls;
      std::vector<std::atomic<int>> runs(count);
      pool.run_tasks(count, [&](std::size_t lane, std::size_t begin,
                                std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) runs[i].fetch_add(1);
        const std::lock_guard<std::mutex> lock(mu);
        calls.push_back({lane, begin, end, std::this_thread::get_id()});
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "lanes=" << lanes << " count=" << count << " index " << i;
      }
      std::vector<int> calls_per_lane(lanes, 0);
      for (const Call& c : calls) {
        ASSERT_LT(c.lane, lanes);
        ++calls_per_lane[c.lane];
        EXPECT_EQ(c.begin, count * c.lane / lanes);
        EXPECT_EQ(c.end, count * (c.lane + 1) / lanes);
        EXPECT_EQ(c.thread == caller, c.lane == 0)
            << "lanes=" << lanes << " count=" << count << " lane " << c.lane;
      }
      for (std::size_t l = 0; l < lanes; ++l) {
        const bool empty = count * l / lanes == count * (l + 1) / lanes;
        EXPECT_EQ(calls_per_lane[l], empty ? 0 : 1)
            << "lanes=" << lanes << " count=" << count << " lane " << l;
      }
    }
  }
}

// --------------------------------------------------------- workloads ----

TEST(WorkloadTest, ScriptedReplaysInOrder) {
  ScriptedWorkload wl({{EdgeEvent::insert(0, 1)}, {}, {EdgeEvent::remove(0, 1)}});
  oracle::TimestampedGraph g(2);
  WorkloadObservation obs{g, 1, true};
  EXPECT_EQ(wl.next_round(obs).size(), 1u);
  EXPECT_FALSE(wl.finished());
  EXPECT_TRUE(wl.next_round(obs).empty());
  EXPECT_EQ(wl.next_round(obs).size(), 1u);
  EXPECT_TRUE(wl.finished());
}

TEST(WorkloadTest, RunWorkloadDrainsToConsistency) {
  Simulator sim(4, probe_factory());
  ScriptedWorkload wl({{EdgeEvent::insert(0, 1), EdgeEvent::insert(2, 3)}});
  const auto rounds = run_workload(sim, wl, 100);
  EXPECT_TRUE(sim.all_consistent());
  EXPECT_GE(rounds, 1u);
  EXPECT_EQ(sim.metrics().changes(), 2u);
}

/// A workload that never reports finished(): toggles edge {0,1} forever.
class EndlessToggle final : public Workload {
 public:
  [[nodiscard]] std::vector<EdgeEvent> next_round(
      const WorkloadObservation& obs) override {
    ++calls;
    const bool present = obs.graph.has_edge(Edge(0, 1));
    return {present ? EdgeEvent::remove(0, 1) : EdgeEvent::insert(0, 1)};
  }
  [[nodiscard]] bool finished() const override { return false; }

  std::size_t calls = 0;
};

TEST(WorkloadTest, MaxRoundsCutsOffNeverFinishedWorkloadThenDrains) {
  // The cutoff path: a never-finished() workload is fed exactly max_rounds
  // rounds, after which the trailing drain still runs (bounded by
  // drain_cap) so the run ends on a settled network.
  Simulator sim(4, probe_factory());
  EndlessToggle wl;
  const auto rounds = run_workload(sim, wl, /*max_rounds=*/50,
                                   /*drain_cap=*/1000);
  EXPECT_EQ(wl.calls, 50u);
  EXPECT_GE(rounds, 50u);
  EXPECT_LE(rounds, 50u + 1000u);
  EXPECT_TRUE(sim.all_consistent());
  EXPECT_EQ(sim.metrics().changes(), 50u);
}

TEST(WorkloadTest, DrainCapZeroCapsAtExactlyMaxRounds) {
  Simulator sim(4, probe_factory());
  EndlessToggle wl;
  const auto rounds = run_workload(sim, wl, /*max_rounds=*/50,
                                   /*drain_cap=*/0);
  EXPECT_EQ(rounds, 50u);
  EXPECT_EQ(wl.calls, 50u);
}

TEST(WorkloadTest, DrainCapBoundsTheTrailingDrain) {
  // Force a perpetually inconsistent network: the drain must give up after
  // exactly drain_cap quiet rounds instead of spinning forever.
  Simulator sim(4, probe_factory());
  dynamic_cast<ProbeNode&>(sim.node(0)).declare_busy_always = true;
  ScriptedWorkload wl({{EdgeEvent::insert(0, 1)}});
  const auto rounds = run_workload(sim, wl, /*max_rounds=*/100,
                                   /*drain_cap=*/7);
  EXPECT_EQ(rounds, 1u + 7u);
  EXPECT_FALSE(sim.all_consistent());
}

}  // namespace
}  // namespace dynsub::net
