// Golden-trace equivalence suite for the sparse active-set round engine.
//
// The sparse engine (SimulatorConfig::sparse_rounds = true, the default)
// must be *observationally identical* to the seed engine's dense semantics
// (every node stepped every round), which is preserved as the
// sparse_rounds = false reference mode.  This suite drives both engines in
// lockstep on the same event stream -- random churn, the Section 1.3
// flicker adversary, and planted-structure churn, all seeded -- and
// asserts, after every single round:
//
//   * identical RoundResults,
//   * identical per-node consistency flags,
//   * identical audited node state (known_edges),
//
// plus, at the end of the run: identical Metrics trajectories (every
// counter, including the per-node vectors) and a clean oracle audit on
// both engines.  Finally it asserts the performance contract that
// motivates the sparse engine: once drained, quiescent rounds step zero
// nodes.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "baseline/floodkhop.hpp"
#include "baseline/full2hop.hpp"
#include "baseline/naive2hop.hpp"
#include "core/audit.hpp"
#include "core/robust2hop.hpp"
#include "core/robust3hop.hpp"
#include "core/triangle.hpp"
#include "dynamics/flicker.hpp"
#include "dynamics/planted.hpp"
#include "dynamics/random_churn.hpp"
#include "detect/session.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "net/workload.hpp"
#include "scenario/compose.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

/// The two engines under comparison, built over the same factory.
struct EnginePair {
  net::Simulator sparse;
  net::Simulator dense;

  EnginePair(std::size_t n, const net::NodeFactory& f)
      : sparse(n, f, {.sparse_rounds = true}),
        dense(n, f, {.sparse_rounds = false}) {}
};

void expect_metrics_equal(const net::Metrics& a, const net::Metrics& b) {
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.changes(), b.changes());
  EXPECT_EQ(a.inconsistent_rounds(), b.inconsistent_rounds());
  EXPECT_EQ(a.messages(), b.messages());
  EXPECT_EQ(a.payload_bits(), b.payload_bits());
  EXPECT_EQ(a.sum_inconsistent_nodes(), b.sum_inconsistent_nodes());
  EXPECT_DOUBLE_EQ(a.amortized(), b.amortized());
  EXPECT_DOUBLE_EQ(a.amortized_sup(), b.amortized_sup());
  EXPECT_DOUBLE_EQ(a.per_node_amortized_sup(), b.per_node_amortized_sup());
  EXPECT_EQ(a.node_inconsistent(), b.node_inconsistent());
  EXPECT_EQ(a.node_changes(), b.node_changes());
}

/// Feeds the same event stream to both engines round by round, asserting
/// the per-round invariants.  `state_of(sim, v)` extracts the audited node
/// state compared across engines (must be equality-comparable).
template <typename StateFn>
void drive_lockstep(EnginePair& e, net::Workload& wl,
                    const StateFn& state_of,
                    std::size_t max_rounds = 100000) {
  const std::size_t n = e.sparse.node_count();
  std::size_t rounds = 0;
  while (rounds < max_rounds &&
         !(wl.finished() && e.sparse.all_consistent())) {
    net::WorkloadObservation obs{e.sparse.graph(), e.sparse.round() + 1,
                                 e.sparse.all_consistent()};
    const std::vector<EdgeEvent> batch =
        wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    const net::RoundResult rs = e.sparse.step(batch);
    const net::RoundResult rd = e.dense.step(batch);
    ASSERT_EQ(rs, rd) << "diverged at round " << rs.round;
    ASSERT_EQ(e.sparse.consistency(), e.dense.consistency())
        << "consistency flags diverged at round " << rs.round;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(state_of(e.sparse, v) == state_of(e.dense, v))
          << "node " << v << " state diverged at round " << rs.round;
    }
    ++rounds;
  }
  ASSERT_TRUE(e.sparse.all_consistent())
      << "failed to stabilize in " << max_rounds << " rounds";
  expect_metrics_equal(e.sparse.metrics(), e.dense.metrics());

  // The perf contract: a drained network runs O(1) quiescent rounds --
  // the sparse engine steps zero nodes while staying equivalent.
  for (int i = 0; i < 3; ++i) {
    const net::RoundResult rs = e.sparse.step({});
    const net::RoundResult rd = e.dense.step({});
    ASSERT_EQ(rs, rd);
    EXPECT_EQ(e.sparse.last_round_active(), 0u);
    EXPECT_EQ(e.sparse.last_round_stepped(), 0u);
  }
}

template <typename NodeT>
auto known_edges_of() {
  return [](const net::Simulator& sim, NodeId v) {
    return dynamic_cast<const NodeT&>(sim.node(v)).known_edges();
  };
}

/// Robust3Hop's full discovery-path set: stricter than known_edges, since
/// every chain-scoped deletion shows up in it even when the edge survives
/// along another chain.
FlatSet<core::PathKey> paths_of(const net::Simulator& sim, NodeId v) {
  return dynamic_cast<const core::Robust3HopNode&>(sim.node(v)).paths();
}

/// Deletion-heavy random churn: a growth stage builds a dense graph, then a
/// shrink stage deletes it down to a fifth of its size in batches that are
/// 90% deletions.
scenario::SequenceWorkload deletion_heavy_churn(std::size_t n,
                                                std::uint64_t seed) {
  dynamics::RandomChurnParams grow;
  grow.n = n;
  grow.target_edges = 100;
  grow.max_changes = 12;
  grow.rounds = 25;
  grow.seed = seed;
  dynamics::RandomChurnParams shrink = grow;
  shrink.target_edges = 20;
  shrink.max_changes = 6;
  shrink.delete_fraction = 0.9;
  shrink.rounds = 40;
  shrink.seed = seed + 1;
  std::vector<std::unique_ptr<net::Workload>> stages;
  stages.push_back(std::make_unique<dynamics::RandomChurnWorkload>(grow));
  stages.push_back(std::make_unique<dynamics::RandomChurnWorkload>(shrink));
  return scenario::SequenceWorkload(std::move(stages));
}

/// The tentpole's equivalence matrix: a sequential reference engine driven
/// in lockstep against the parallel engine at 1, 2, 4, and 8 lanes, asserting
/// after every round identical RoundResults, consistency flags, and audited
/// node state, then identical Metrics trajectories at the end.  `dense`
/// runs the whole matrix under the seed engine's dense semantics (the
/// parallel path must be bit-identical under both).
template <typename StateFn>
void drive_lockstep_parallel(std::size_t n, const net::NodeFactory& f,
                             net::Workload& wl, const StateFn& state_of,
                             bool dense = false,
                             const testing::RoundAudit& audit = {},
                             std::size_t max_rounds = 100000) {
  net::SimulatorConfig base;
  base.sparse_rounds = !dense;
  net::Simulator seq(n, f, base);
  std::vector<std::unique_ptr<net::Simulator>> par;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    net::SimulatorConfig cfg = base;
    cfg.threads = threads;
    // Race every dispatch: without this the small-n suites would fall
    // under the pool's inline cutoff and never leave the calling thread.
    cfg.threads_inline_cutoff = 0;
    par.push_back(std::make_unique<net::Simulator>(n, f, cfg));
  }
  std::size_t rounds = 0;
  while (rounds < max_rounds && !(wl.finished() && seq.all_consistent())) {
    net::WorkloadObservation obs{seq.graph(), seq.round() + 1,
                                 seq.all_consistent()};
    const std::vector<EdgeEvent> batch =
        wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    const net::RoundResult rs = seq.step(batch);
    for (auto& p : par) {
      const net::RoundResult rp = p->step(batch);
      ASSERT_EQ(rs, rp) << "threads=" << p->config().threads
                        << " diverged at round " << rs.round;
      ASSERT_EQ(seq.consistency(), p->consistency())
          << "threads=" << p->config().threads
          << " consistency flags diverged at round " << rs.round;
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_TRUE(state_of(seq, v) == state_of(*p, v))
            << "threads=" << p->config().threads << " node " << v
            << " state diverged at round " << rs.round;
      }
    }
    ++rounds;
  }
  ASSERT_TRUE(seq.all_consistent())
      << "failed to stabilize in " << max_rounds << " rounds";
  for (auto& p : par) {
    expect_metrics_equal(seq.metrics(), p->metrics());
    EXPECT_EQ(seq.last_round_active(), p->last_round_active());
    EXPECT_EQ(seq.last_round_stepped(), p->last_round_stepped());
  }
  if (audit) {
    EXPECT_EQ(audit(seq), std::nullopt);
    for (auto& p : par) {
      EXPECT_EQ(audit(*p), std::nullopt)
          << "audit failed at threads=" << p->config().threads;
    }
  }
  // Quiescent parity: the sparse perf contract holds per lane count too.
  for (int i = 0; i < 3; ++i) {
    const net::RoundResult rs = seq.step({});
    for (auto& p : par) {
      ASSERT_EQ(rs, p->step({}));
      if (!dense) {
        EXPECT_EQ(p->last_round_stepped(), 0u);
      }
    }
  }
}

TEST(SimulatorEquivalence, TriangleUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 32;
  cp.target_edges = 64;
  cp.max_changes = 5;
  cp.rounds = 150;
  cp.seed = 0xE0u;
  dynamics::RandomChurnWorkload wl(cp);
  EnginePair e(cp.n, testing::factory_of<core::TriangleNode>());
  drive_lockstep(e, wl, known_edges_of<core::TriangleNode>());
  EXPECT_EQ(core::audit_triangle(e.sparse), std::nullopt);
  EXPECT_EQ(core::audit_triangle(e.dense), std::nullopt);
}

TEST(SimulatorEquivalence, Robust2HopUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 40;
  cp.target_edges = 80;
  cp.max_changes = 6;
  cp.rounds = 150;
  cp.seed = 0xE1u;
  dynamics::RandomChurnWorkload wl(cp);
  EnginePair e(cp.n, testing::factory_of<core::Robust2HopNode>());
  drive_lockstep(e, wl, known_edges_of<core::Robust2HopNode>());
  EXPECT_EQ(core::audit_robust2hop(e.sparse), std::nullopt);
  EXPECT_EQ(core::audit_robust2hop(e.dense), std::nullopt);
}

TEST(SimulatorEquivalence, Robust3HopUnderPlantedCycles) {
  dynamics::PlantedParams pp;
  pp.n = 28;
  pp.k = 4;
  pp.plants = 2;
  pp.noise_per_round = 1;
  pp.rebuild_period = 14;
  pp.rounds = 120;
  pp.seed = 0xE2u;
  dynamics::PlantedCycleWorkload wl(pp);
  EnginePair e(pp.n, testing::factory_of<core::Robust3HopNode>());
  drive_lockstep(e, wl, known_edges_of<core::Robust3HopNode>());
  EXPECT_EQ(core::audit_robust3hop(e.sparse), std::nullopt);
  EXPECT_EQ(core::audit_robust3hop(e.dense), std::nullopt);
  EXPECT_EQ(core::audit_cycle_listing(e.sparse), std::nullopt);
  EXPECT_EQ(core::audit_cycle_listing(e.dense), std::nullopt);
}

TEST(SimulatorEquivalence, Robust3HopUnderDeletionHeavyChurn) {
  auto wl = deletion_heavy_churn(28, 0xE5u);
  EnginePair e(28, testing::factory_of<core::Robust3HopNode>());
  drive_lockstep(e, wl, paths_of);
  EXPECT_EQ(core::audit_robust3hop(e.sparse), std::nullopt);
  EXPECT_EQ(core::audit_robust3hop(e.dense), std::nullopt);
}

TEST(SimulatorEquivalence, TriangleUnderFlickerAdversary) {
  const auto scenario = dynamics::make_repeated_flicker_scenario(12, 3);
  net::ScriptedWorkload wl(scenario.script);
  EnginePair e(12, testing::factory_of<core::TriangleNode>());
  drive_lockstep(e, wl, known_edges_of<core::TriangleNode>());
  EXPECT_EQ(core::audit_triangle(e.sparse), std::nullopt);
}

TEST(SimulatorEquivalence, NaiveBaselineUnderFlickerAdversary) {
  // The naive baseline keeps its ghost edge -- equivalence is about
  // identical behavior, not correctness, so it must hold here too.
  const auto scenario = dynamics::make_flicker_scenario(12);
  net::ScriptedWorkload wl(scenario.script);
  EnginePair e(12, testing::factory_of<baseline::NaiveTwoHopNode>());
  drive_lockstep(e, wl, [](const net::Simulator& sim, NodeId v) {
    return dynamic_cast<const baseline::NaiveTwoHopNode&>(sim.node(v))
        .known_edges();
  });
}

TEST(SimulatorEquivalence, FullTwoHopBaselineUnderRandomChurn) {
  // The heaviest-traffic program: multi-round snapshot FIFOs whose
  // consistency flips are driven by pure receivers, and the only
  // production exerciser of the SmallBlob snapshot-chunk wire path.
  dynamics::RandomChurnParams cp;
  cp.n = 20;
  cp.target_edges = 30;
  cp.max_changes = 3;
  cp.rounds = 80;
  cp.seed = 0xE4u;
  dynamics::RandomChurnWorkload wl(cp);
  EnginePair e(cp.n, testing::factory_of<baseline::FullTwoHopNode>());
  drive_lockstep(e, wl, [](const net::Simulator& sim, NodeId v) {
    return dynamic_cast<const baseline::FullTwoHopNode&>(sim.node(v))
        .known_edges();
  });
}

TEST(SimulatorEquivalence, FloodBaselineUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 36;
  cp.max_changes = 3;
  cp.rounds = 80;
  cp.seed = 0xE3u;
  dynamics::RandomChurnWorkload wl(cp);
  EnginePair e(cp.n, testing::factory_of<baseline::FloodKHopNode>(2));
  drive_lockstep(e, wl, [](const net::Simulator& sim, NodeId v) {
    return dynamic_cast<const baseline::FloodKHopNode&>(sim.node(v))
        .known_edges();
  });
}

// ---------------------------------------------------------------------------
// The parallel round engine (SimulatorConfig::threads): bit-identical to the
// sequential engine at every lane count, across the same adversary spread
// the sparse/dense suite uses.
// ---------------------------------------------------------------------------

TEST(ParallelEquivalence, TriangleUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 32;
  cp.target_edges = 64;
  cp.max_changes = 5;
  cp.rounds = 150;
  cp.seed = 0xF0u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_lockstep_parallel(cp.n, testing::factory_of<core::TriangleNode>(),
                          wl, known_edges_of<core::TriangleNode>(),
                          /*dense=*/false, core::audit_triangle);
}

TEST(ParallelEquivalence, Robust2HopUnderRandomChurn) {
  dynamics::RandomChurnParams cp;
  cp.n = 40;
  cp.target_edges = 80;
  cp.max_changes = 6;
  cp.rounds = 150;
  cp.seed = 0xF1u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_lockstep_parallel(cp.n, testing::factory_of<core::Robust2HopNode>(),
                          wl, known_edges_of<core::Robust2HopNode>(),
                          /*dense=*/false, core::audit_robust2hop);
}

TEST(ParallelEquivalence, Robust3HopUnderPlantedCycles) {
  dynamics::PlantedParams pp;
  pp.n = 28;
  pp.k = 4;
  pp.plants = 2;
  pp.noise_per_round = 1;
  pp.rebuild_period = 14;
  pp.rounds = 120;
  pp.seed = 0xF2u;
  dynamics::PlantedCycleWorkload wl(pp);
  drive_lockstep_parallel(pp.n, testing::factory_of<core::Robust3HopNode>(),
                          wl, known_edges_of<core::Robust3HopNode>(),
                          /*dense=*/false, core::audit_robust3hop);
}

TEST(ParallelEquivalence, Robust3HopUnderDeletionHeavyChurn) {
  auto wl = deletion_heavy_churn(28, 0xF8u);
  drive_lockstep_parallel(28, testing::factory_of<core::Robust3HopNode>(),
                          wl, paths_of, /*dense=*/false,
                          core::audit_robust3hop);
}

TEST(ParallelEquivalence, TriangleUnderFlickerAdversary) {
  const auto scenario = dynamics::make_repeated_flicker_scenario(12, 3);
  net::ScriptedWorkload wl(scenario.script);
  drive_lockstep_parallel(12, testing::factory_of<core::TriangleNode>(), wl,
                          known_edges_of<core::TriangleNode>());
}

TEST(ParallelEquivalence, FullTwoHopUnderRandomChurn) {
  // Heaviest traffic + pure receivers: the receive half's shard split and
  // sequential bookkeeping must agree with the sequential engine exactly.
  dynamics::RandomChurnParams cp;
  cp.n = 20;
  cp.target_edges = 30;
  cp.max_changes = 3;
  cp.rounds = 80;
  cp.seed = 0xF3u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_lockstep_parallel(
      cp.n, testing::factory_of<baseline::FullTwoHopNode>(), wl,
      [](const net::Simulator& sim, NodeId v) {
        return dynamic_cast<const baseline::FullTwoHopNode&>(sim.node(v))
            .known_edges();
      });
}

TEST(ParallelEquivalence, DenseEngineAlsoShards) {
  // threads combines with sparse_rounds = false: the dense reference
  // semantics shard identically.
  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 48;
  cp.max_changes = 4;
  cp.rounds = 100;
  cp.seed = 0xF4u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_lockstep_parallel(cp.n, testing::factory_of<core::TriangleNode>(),
                          wl, known_edges_of<core::TriangleNode>(),
                          /*dense=*/true);
}

TEST(ParallelEquivalence, RecordedTraceBytesIdentical) {
  // The record/replay contract across engines: the same scenario recorded
  // under the sequential and the 4-lane engine emits byte-equal traces and
  // identical timing-free summaries.  (Adaptive workloads observe the
  // graph and the consistency flags, so this is a real end-to-end gate,
  // not a tautology.)
  auto run_one = [](std::size_t threads) {
    detect::SessionOptions opts;
    opts.detector = "triangle";
    opts.scenario = "multi-community-churn";
    opts.quick = true;
    opts.record = true;
    opts.sim.threads = threads;
    std::string error;
    auto session = detect::Session::open(std::move(opts), &error);
    EXPECT_TRUE(session.has_value()) << error;
    session->run();
    std::ostringstream trace;
    net::write_trace(trace, session->recorded());
    return std::make_pair(trace.str(), session->summary());
  };
  const auto [trace_seq, sum_seq] = run_one(0);
  const auto [trace_par, sum_par] = run_one(4);
  EXPECT_FALSE(trace_seq.empty());
  EXPECT_EQ(trace_seq, trace_par);
  EXPECT_EQ(sum_seq.rounds, sum_par.rounds);
  EXPECT_EQ(sum_seq.changes, sum_par.changes);
  EXPECT_EQ(sum_seq.inconsistent_rounds, sum_par.inconsistent_rounds);
  EXPECT_EQ(sum_seq.messages, sum_par.messages);
  EXPECT_EQ(sum_seq.payload_bits, sum_par.payload_bits);
  EXPECT_DOUBLE_EQ(sum_seq.amortized, sum_par.amortized);
  EXPECT_DOUBLE_EQ(sum_seq.amortized_sup, sum_par.amortized_sup);
}

// ---------------------------------------------------------------------------
// Bugfix sweep regressions: epoch wrap and mid-run sparse toggling.
// ---------------------------------------------------------------------------

TEST(SimulatorEquivalence, EpochWrapIsInvisible) {
  // Prime the active-set epoch to the brink of std::uint32_t wrap
  // *mid-run*: the stamps then hold small epoch values from the first life
  // of the counter, and the post-wrap epochs count straight back into
  // them.  Without the wrap reset that aliasing drops event-touched nodes
  // from the active set.  (Priming at construction would not catch this:
  // the round-1 dense bootstrap stamps every mark with a near-max epoch
  // that small post-wrap epochs never reach.)  A wrapped engine must stay
  // in lockstep with a fresh one.
  // The alias needs a node whose pre-wrap stamp is revisited by a
  // post-wrap epoch at the exact round it is touched again, and the
  // stamp-to-revisit gap is fixed by the priming point -- so sweep the
  // priming point over a window of rounds to cover many gaps.
  const auto factory = testing::factory_of<core::TriangleNode>();
  const auto state_of = known_edges_of<core::TriangleNode>();
  for (std::size_t prime_round = 4; prime_round <= 20; ++prime_round) {
    dynamics::RandomChurnParams cp;
    cp.n = 32;
    cp.target_edges = 64;
    cp.max_changes = 5;
    cp.rounds = 80;
    cp.seed = 0xF5u;
    dynamics::RandomChurnWorkload wl(cp);
    net::Simulator fresh(cp.n, factory, {});
    net::Simulator wrapped(cp.n, factory, {});
    std::size_t rounds = 0;
    while (rounds < 100000 && !(wl.finished() && fresh.all_consistent())) {
      if (rounds == prime_round) {
        wrapped.debug_prime_epoch_wrap(/*steps=*/3);
      }
      net::WorkloadObservation obs{fresh.graph(), fresh.round() + 1,
                                   fresh.all_consistent()};
      const std::vector<EdgeEvent> batch =
          wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
      const net::RoundResult rf = fresh.step(batch);
      const net::RoundResult rw = wrapped.step(batch);
      ASSERT_EQ(rf, rw) << "prime_round=" << prime_round
                        << ": wrapped engine diverged at round " << rf.round;
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

TEST(ParallelEquivalence, EpochWrapIsInvisibleAtEveryLaneCount) {
  // The active-set epoch wraps at the barrier, but the sets it builds are
  // sharded across lanes -- so cross it under the parallel engine at
  // several lane counts and hold each against an unwrapped sequential
  // reference.
  const auto factory = testing::factory_of<core::TriangleNode>();
  const auto state_of = known_edges_of<core::TriangleNode>();
  for (const std::size_t threads : {2, 4, 8}) {
    for (std::size_t prime_round = 4; prime_round <= 12; prime_round += 4) {
      dynamics::RandomChurnParams cp;
      cp.n = 32;
      cp.target_edges = 64;
      cp.max_changes = 5;
      cp.rounds = 60;
      cp.seed = 0xF7u;
      dynamics::RandomChurnWorkload wl(cp);
      net::Simulator fresh(cp.n, factory, {});
      net::SimulatorConfig cfg;
      cfg.threads = threads;
      cfg.threads_inline_cutoff = 0;  // race every dispatch
      net::Simulator wrapped(cp.n, factory, cfg);
      std::size_t rounds = 0;
      while (rounds < 100000 && !(wl.finished() && fresh.all_consistent())) {
        if (rounds == prime_round) {
          wrapped.debug_prime_epoch_wrap(/*steps=*/3);
        }
        net::WorkloadObservation obs{fresh.graph(), fresh.round() + 1,
                                     fresh.all_consistent()};
        const std::vector<EdgeEvent> batch =
            wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
        const net::RoundResult rf = fresh.step(batch);
        const net::RoundResult rw = wrapped.step(batch);
        ASSERT_EQ(rf, rw) << "threads=" << threads
                          << " prime_round=" << prime_round
                          << ": wrapped engine diverged at round " << rf.round;
        ASSERT_EQ(fresh.consistency(), wrapped.consistency())
            << "threads=" << threads << " prime_round=" << prime_round;
        for (NodeId v = 0; v < cp.n; ++v) {
          ASSERT_TRUE(state_of(fresh, v) == state_of(wrapped, v))
              << "threads=" << threads << " node " << v
              << " diverged at round " << rf.round;
        }
        ++rounds;
      }
      ASSERT_TRUE(fresh.all_consistent());
      expect_metrics_equal(fresh.metrics(), wrapped.metrics());
      EXPECT_EQ(core::audit_triangle(wrapped), std::nullopt);
    }
  }
}

}  // namespace
}  // namespace dynsub
