// ShardEquivalence -- the acceptance suite for the partitioned shard
// engine (SimulatorConfig::shards, net/shard_fabric.hpp).
//
// The shard engine splits the simulator into S shards, each owning a
// contiguous node-id partition and its own Router, exchanging cross-shard
// traffic as encoded wire-v2 lane-batch frames through the Transport seam
// at the round barrier.  The contract under test: that refactor is
// *observationally invisible*.  Against a sequential single-router
// reference, at shards in {1, 2, 4, 8} x threads in {1, 4} (plus an odd
// shard count that does not divide n), this suite asserts
//
//   * identical RoundResults, consistency flags, and audited node state
//     after every round,
//   * identical Metrics trajectories (including the per-node vectors) and
//     clean oracle audits at the end,
//   * byte-identical recorded traces and timing-free summaries through
//     the Session layer,
//   * byte-identical serve answer streams,
//   * all of the above under a recoverable chaos plan (modulo the
//     transport_* counters, whose fault dice depend on the frame-key
//     space) and across a mid-run wire-epoch wrap,
//
// and the no-shared-memory-shortcut guarantee: at S >= 2 cross-shard
// traffic actually crosses the byte boundary (per-shard wire-byte
// accounting is nonzero) while the fault-free TransportStats stay exactly
// zero -- the {"max": 0} perf gates depend on that.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/full2hop.hpp"
#include "core/audit.hpp"
#include "core/robust2hop.hpp"
#include "core/triangle.hpp"
#include "detect/session.hpp"
#include "dynamics/random_churn.hpp"
#include "net/faults.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "net/workload.hpp"
#include "serve/clock.hpp"
#include "serve/loop.hpp"
#include "serve/request.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

void expect_metrics_equal(const net::Metrics& a, const net::Metrics& b) {
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.changes(), b.changes());
  EXPECT_EQ(a.inconsistent_rounds(), b.inconsistent_rounds());
  EXPECT_EQ(a.messages(), b.messages());
  EXPECT_EQ(a.payload_bits(), b.payload_bits());
  EXPECT_EQ(a.sum_inconsistent_nodes(), b.sum_inconsistent_nodes());
  EXPECT_DOUBLE_EQ(a.amortized(), b.amortized());
  EXPECT_DOUBLE_EQ(a.amortized_sup(), b.amortized_sup());
  EXPECT_EQ(a.node_inconsistent(), b.node_inconsistent());
  EXPECT_EQ(a.node_changes(), b.node_changes());
}

template <typename NodeT>
auto known_edges_of() {
  return [](const net::Simulator& sim, NodeId v) {
    return dynamic_cast<const NodeT&>(sim.node(v)).known_edges();
  };
}

struct ShardCell {
  std::size_t shards;
  std::size_t threads;
};

/// Drives a sequential single-shard reference in lockstep with one shard
/// engine per matrix cell on the same event stream.  Every engine sees
/// the exact same batches (the adaptive workload observes the reference),
/// so any divergence is the shard engine's fault.  `faults` applies to
/// the shard engines only when `chaos` is set; the reference always runs
/// fault-free (the recoverable-chaos contract: bit-identical results,
/// transport counters excepted).
template <typename StateFn>
void drive_shard_matrix(std::size_t n, const net::NodeFactory& f,
                        net::Workload& wl, const StateFn& state_of,
                        const std::vector<ShardCell>& cells,
                        const testing::RoundAudit& audit = {},
                        const net::FaultPlan& faults = {},
                        std::size_t max_rounds = 100000) {
  net::Simulator seq(n, f, {});
  const bool chaos = faults.enabled;
  std::vector<std::unique_ptr<net::Simulator>> engines;
  for (const ShardCell& cell : cells) {
    net::SimulatorConfig cfg;
    cfg.threads = cell.threads;
    cfg.threads_inline_cutoff = 0;  // race every dispatch
    cfg.shards = cell.shards;
    cfg.faults = faults;
    engines.push_back(std::make_unique<net::Simulator>(n, f, cfg));
  }
  std::size_t rounds = 0;
  while (rounds < max_rounds && !(wl.finished() && seq.all_consistent())) {
    net::WorkloadObservation obs{seq.graph(), seq.round() + 1,
                                 seq.all_consistent()};
    const std::vector<EdgeEvent> batch =
        wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    const net::RoundResult rs = seq.step(batch);
    for (std::size_t i = 0; i < engines.size(); ++i) {
      net::Simulator& e = *engines[i];
      const net::RoundResult rp = e.step(batch);
      ASSERT_EQ(rs, rp) << "shards=" << cells[i].shards
                        << " threads=" << cells[i].threads
                        << " diverged at round " << rs.round;
      ASSERT_FALSE(e.last_round_had_loss())
          << "shards=" << cells[i].shards << " round " << rs.round;
      ASSERT_EQ(seq.consistency(), e.consistency())
          << "shards=" << cells[i].shards
          << " consistency flags diverged at round " << rs.round;
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_TRUE(state_of(seq, v) == state_of(e, v))
            << "shards=" << cells[i].shards << " threads=" << cells[i].threads
            << " node " << v << " state diverged at round " << rs.round;
      }
    }
    ++rounds;
  }
  ASSERT_TRUE(seq.all_consistent())
      << "failed to stabilize in " << max_rounds << " rounds";
  for (std::size_t i = 0; i < engines.size(); ++i) {
    expect_metrics_equal(seq.metrics(), engines[i]->metrics());
    EXPECT_EQ(seq.last_round_active(), engines[i]->last_round_active());
    EXPECT_EQ(seq.last_round_stepped(), engines[i]->last_round_stepped());
    if (!chaos) {
      // Fault-free shard engines must never tick the transport-fault
      // counters: frame shipping is LocalTransport's clean path.
      EXPECT_TRUE(engines[i]->metrics().transport() == net::TransportStats{})
          << "shards=" << cells[i].shards;
    }
    EXPECT_EQ(engines[i]->degraded_count(), 0u);
    if (audit) {
      EXPECT_EQ(audit(*engines[i]), std::nullopt)
          << "audit failed at shards=" << cells[i].shards
          << " threads=" << cells[i].threads;
    }
  }
  if (audit) {
    EXPECT_EQ(audit(seq), std::nullopt);
  }
}

/// The acceptance matrix: shards {1, 2, 4, 8} x threads {1, 4}, plus a
/// shard count that does not divide n (uneven contiguous partition).
std::vector<ShardCell> acceptance_cells() {
  std::vector<ShardCell> cells;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 4u}) {
      cells.push_back(ShardCell{shards, threads});
    }
  }
  cells.push_back(ShardCell{3, 2});
  return cells;
}

TEST(ShardEquivalence, TriangleByteIdenticalAcrossShardMatrix) {
  dynamics::RandomChurnParams cp;
  cp.n = 32;
  cp.target_edges = 64;
  cp.max_changes = 5;
  cp.rounds = 80;
  cp.seed = 0x5A0u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_shard_matrix(cp.n, net::store_of<core::TriangleNode>(), wl,
                     known_edges_of<core::TriangleNode>(), acceptance_cells(),
                     core::audit_triangle);
}

TEST(ShardEquivalence, Robust2HopByteIdenticalAcrossShards) {
  dynamics::RandomChurnParams cp;
  cp.n = 40;
  cp.target_edges = 80;
  cp.max_changes = 6;
  cp.rounds = 80;
  cp.seed = 0x5A1u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_shard_matrix(cp.n, net::store_of<core::Robust2HopNode>(), wl,
                     known_edges_of<core::Robust2HopNode>(),
                     {{2, 1}, {2, 4}, {4, 1}, {4, 4}}, core::audit_robust2hop);
}

TEST(ShardEquivalence, FullTwoHopHeavyTrafficAcrossShards) {
  // Heaviest traffic + pure receivers + the SmallBlob snapshot-chunk wire
  // path: every cross-shard frame kind, and the receive half's slot split
  // must agree with the sequential bookkeeping walk exactly.
  dynamics::RandomChurnParams cp;
  cp.n = 20;
  cp.target_edges = 30;
  cp.max_changes = 3;
  cp.rounds = 60;
  cp.seed = 0x5A2u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_shard_matrix(
      cp.n, net::store_of<baseline::FullTwoHopNode>(), wl,
      [](const net::Simulator& sim, NodeId v) {
        return dynamic_cast<const baseline::FullTwoHopNode&>(sim.node(v))
            .known_edges();
      },
      {{2, 4}, {4, 4}, {8, 1}});
}

TEST(ShardEquivalence, RecoverableChaosByteIdenticalAcrossShards) {
  // Under a recoverable fault plan the shard engine must still match the
  // fault-free sequential reference bit for bit -- drops, corruptions,
  // duplicates, reorders, and delays now hit real cross-shard frames.
  net::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 23;
  plan.drop = 0.05;
  plan.corrupt = 0.03;
  plan.duplicate = 0.05;
  plan.reorder = 0.2;
  plan.delay = 0.03;
  plan.max_retries = 12;
  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 48;
  cp.max_changes = 4;
  cp.rounds = 60;
  cp.seed = 0x5A3u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_shard_matrix(cp.n, net::store_of<core::TriangleNode>(), wl,
                     known_edges_of<core::TriangleNode>(),
                     {{2, 1}, {2, 4}, {4, 1}, {4, 4}}, core::audit_triangle,
                     plan);
}

TEST(ShardEquivalence, EpochWrapIsInvisibleAcrossShards) {
  // Prime the active-set epoch to the brink of wrap mid-run: the shard
  // engine keeps all S routers in lockstep through the wrap reset, and
  // frame validation (seq/epoch in every header) keeps accepting fresh
  // frames.
  const auto factory = net::store_of<core::TriangleNode>();
  const auto state_of = known_edges_of<core::TriangleNode>();
  for (std::size_t prime_round = 4; prime_round <= 12; prime_round += 4) {
    dynamics::RandomChurnParams cp;
    cp.n = 32;
    cp.target_edges = 64;
    cp.max_changes = 5;
    cp.rounds = 60;
    cp.seed = 0x5A4u;
    dynamics::RandomChurnWorkload wl(cp);
    net::Simulator fresh(cp.n, factory, {});
    net::SimulatorConfig cfg;
    cfg.threads = 4;
    cfg.threads_inline_cutoff = 0;
    cfg.shards = 4;
    net::Simulator wrapped(cp.n, factory, cfg);
    std::size_t rounds = 0;
    while (rounds < 100000 && !(wl.finished() && fresh.all_consistent())) {
      if (rounds == prime_round) wrapped.debug_prime_epoch_wrap(/*steps=*/3);
      net::WorkloadObservation obs{fresh.graph(), fresh.round() + 1,
                                   fresh.all_consistent()};
      const std::vector<EdgeEvent> batch =
          wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
      const net::RoundResult rf = fresh.step(batch);
      const net::RoundResult rw = wrapped.step(batch);
      ASSERT_EQ(rf, rw) << "prime_round=" << prime_round
                        << ": wrapped shard engine diverged at round "
                        << rf.round;
      ASSERT_EQ(fresh.consistency(), wrapped.consistency())
          << "prime_round=" << prime_round;
      for (NodeId v = 0; v < cp.n; ++v) {
        ASSERT_TRUE(state_of(fresh, v) == state_of(wrapped, v))
            << "prime_round=" << prime_round << " node " << v
            << " diverged at round " << rf.round;
      }
      ++rounds;
    }
    ASSERT_TRUE(fresh.all_consistent());
    expect_metrics_equal(fresh.metrics(), wrapped.metrics());
    EXPECT_EQ(core::audit_triangle(wrapped), std::nullopt);
  }
}

TEST(ShardEquivalence, CrossShardTrafficActuallyCrossesTheWire) {
  // The no-shared-memory-shortcut gate: at S >= 2 a churn round's
  // cross-shard messages must show up as per-shard ingress frames and
  // wire bytes, at S == 1 the books stay exactly zero -- and on the
  // fault-free path the TransportStats stay zero at every shard count
  // (the {"max": 0} perf-baseline gates rely on that).
  auto run_one = [](std::size_t shards) {
    dynamics::RandomChurnParams cp;
    cp.n = 32;
    cp.target_edges = 64;
    cp.max_changes = 5;
    cp.rounds = 40;
    cp.seed = 0x5A5u;
    dynamics::RandomChurnWorkload wl(cp);
    net::SimulatorConfig cfg;
    cfg.shards = shards;
    net::Simulator sim(cp.n, net::store_of<core::TriangleNode>(), cfg);
    net::run_workload(sim, wl, 100000);
    EXPECT_TRUE(sim.metrics().transport() == net::TransportStats{})
        << "shards=" << shards;
    return sim.metrics().shard_stats();
  };

  const std::vector<net::ShardStats> one = run_one(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0] == net::ShardStats{});

  for (const std::size_t shards : {2u, 4u}) {
    const std::vector<net::ShardStats> books = run_one(shards);
    ASSERT_EQ(books.size(), shards);
    net::ShardStats total;
    for (const net::ShardStats& b : books) {
      total += b;
      // Random churn touches every id range: each shard must have
      // received real frames over the byte boundary.
      EXPECT_GT(b.frames, 0u) << "shards=" << shards;
      EXPECT_GT(b.wire_bytes, 0u) << "shards=" << shards;
    }
    EXPECT_EQ(total.faults, 0u);
    EXPECT_EQ(total.lost_batches, 0u);
  }
}

TEST(ShardEquivalence, RecordedTraceBytesIdenticalAcrossShardCounts) {
  // Record/replay through the Session layer: the same adaptive registry
  // scenario recorded at shards in {1, 2, 4} emits byte-equal traces and
  // identical timing-free summaries.
  auto run_one = [](std::size_t shards, const net::FaultPlan& plan) {
    detect::SessionOptions opts;
    opts.detector = "triangle";
    opts.scenario = "multi-community-churn";
    opts.quick = true;
    opts.record = true;
    opts.sim.threads = shards > 1 ? 2 : 0;
    opts.sim.shards = shards;
    opts.sim.threads_inline_cutoff = 0;
    opts.sim.faults = plan;
    std::string error;
    auto session = detect::Session::open(std::move(opts), &error);
    EXPECT_TRUE(session.has_value()) << error;
    session->run();
    std::ostringstream trace;
    net::write_trace(trace, session->recorded());
    return std::make_pair(trace.str(), session->summary());
  };
  const auto [trace_ref, sum_ref] = run_one(1, {});
  EXPECT_FALSE(trace_ref.empty());
  net::FaultPlan chaos;
  chaos.enabled = true;
  chaos.seed = 7;
  chaos.drop = 0.05;
  chaos.duplicate = 0.05;
  chaos.reorder = 0.1;
  chaos.max_retries = 12;
  for (const std::size_t shards : {2u, 4u}) {
    for (const bool faulty : {false, true}) {
      const auto [trace, sum] = run_one(shards, faulty ? chaos : net::FaultPlan{});
      EXPECT_EQ(trace_ref, trace) << "shards=" << shards
                                  << " faulty=" << faulty;
      EXPECT_EQ(sum_ref.rounds, sum.rounds) << "shards=" << shards;
      EXPECT_EQ(sum_ref.changes, sum.changes) << "shards=" << shards;
      EXPECT_EQ(sum_ref.inconsistent_rounds, sum.inconsistent_rounds)
          << "shards=" << shards;
      EXPECT_EQ(sum_ref.messages, sum.messages) << "shards=" << shards;
      EXPECT_EQ(sum_ref.payload_bits, sum.payload_bits)
          << "shards=" << shards;
      EXPECT_DOUBLE_EQ(sum_ref.amortized, sum.amortized)
          << "shards=" << shards;
    }
  }
}

TEST(ShardEquivalence, ServeAnswerStreamIdenticalAcrossShardCounts) {
  // The serve layer snapshots at the same round barrier the frame
  // exchange runs at: gated answers must come out byte-identical no
  // matter how many shards produced them.
  serve::RequestScript script;
  auto query_at = [&](Round round, NodeId node, NodeId a, NodeId b) {
    serve::ScriptedRequest e;
    e.round = round;
    e.request.kind = serve::RequestKind::kQuery;
    e.request.node = node;
    e.request.query = detect::EdgeQuery{Edge{a, b}};
    script.entries.push_back(e);
  };
  query_at(5, 0, 0, 1);
  query_at(12, 3, 3, 4);
  query_at(25, 9, 9, 12);
  {
    serve::ScriptedRequest e;
    e.round = 30;
    e.request.kind = serve::RequestKind::kList;
    e.request.node = 1;
    e.request.list_kind = detect::QueryKind::kTriangle;
    script.entries.push_back(e);
  }
  {
    serve::ScriptedRequest e;
    e.round = 40;
    e.request.kind = serve::RequestKind::kAudit;
    script.entries.push_back(e);
  }

  std::optional<std::string> reference;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    detect::SessionOptions opts;
    opts.detector = "triangle";
    opts.scenario = "churn(n=32, rounds=60, seed=5)";
    opts.sim.threads = shards > 1 ? 2 : 0;
    opts.sim.shards = shards;
    opts.sim.threads_inline_cutoff = 0;
    std::string error;
    auto session = detect::Session::open(std::move(opts), &error);
    ASSERT_TRUE(session.has_value()) << error;
    serve::SimClock clock;
    serve::ServeLoop loop(*session, clock, {});
    std::string stream;
    loop.run(script, [&](const serve::Response& r) {
      stream += serve::to_line(r);
      stream += '\n';
    });
    EXPECT_EQ(loop.stats().answered, script.entries.size())
        << "shards=" << shards;
    if (!reference) {
      reference = stream;
      EXPECT_FALSE(stream.empty());
    } else {
      EXPECT_EQ(stream, *reference) << "shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace dynsub
