// The chaos suite for the lane-batch transport seam (net/transport.hpp,
// net/faults.hpp): fault-plan spec parsing, the pure-hash determinism
// contract (every fault and backoff decision recomputable from
// (seed, round, lane, attempt)), unit-level ChaosTransport behavior against
// a hand-staged Router, and the two engine-level guarantees the tentpole
// claims:
//
//   * ChaosEquivalence -- under a recoverable fault plan (drops,
//     corruptions, duplicates, reorders, delays, bounded retries) the
//     engine is *bit-identical* to the fault-free engine: per-round
//     results, consistency flags, audited node state, metrics, and
//     recorded traces, at every thread count and fault seed.
//
//   * Degraded mode -- when retries exhaust (a kill-lane outage window)
//     the engine never lies: lost destinations read inconsistent, every
//     audit stays sound mid-outage, and once delivery resumes the engine
//     re-converges through real flicker recovery.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/robust2hop.hpp"
#include "core/triangle.hpp"
#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "dynamics/random_churn.hpp"
#include "net/faults.hpp"
#include "net/message.hpp"
#include "net/router.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "net/transport.hpp"
#include "net/workload.hpp"
#include "oracle/timestamped_graph.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

// ------------------------------------------------------ fault plan spec ----

TEST(FaultPlanSpec, NoneAndEmptyAreDisabled) {
  std::string error;
  const auto none = net::parse_fault_plan("none", &error);
  ASSERT_TRUE(none.has_value()) << error;
  EXPECT_FALSE(none->enabled);
  const auto empty = net::parse_fault_plan("", &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_FALSE(empty->enabled);
  EXPECT_EQ(net::to_string(*none), "none");
}

TEST(FaultPlanSpec, DefaultsAndFullParameterization) {
  std::string error;
  const auto bare = net::parse_fault_plan("chaos", &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_TRUE(bare->enabled);
  EXPECT_EQ(bare->seed, 1u);
  EXPECT_EQ(bare->drop, 0.0);
  EXPECT_EQ(bare->max_retries, 8u);
  EXPECT_EQ(bare->kill_lane, net::FaultPlan::kNoLane);

  const auto full = net::parse_fault_plan(
      "chaos(seed=7, drop=0.01, corrupt=0.005, duplicate=0.02, reorder=0.1, "
      "delay=0.01, retries=5, backoff_base=2, backoff_cap=32, kill_lane=3, "
      "kill_from=10, kill_until=20)",
      &error);
  ASSERT_TRUE(full.has_value()) << error;
  EXPECT_EQ(full->seed, 7u);
  EXPECT_DOUBLE_EQ(full->drop, 0.01);
  EXPECT_DOUBLE_EQ(full->corrupt, 0.005);
  EXPECT_DOUBLE_EQ(full->duplicate, 0.02);
  EXPECT_DOUBLE_EQ(full->reorder, 0.1);
  EXPECT_DOUBLE_EQ(full->delay, 0.01);
  EXPECT_EQ(full->max_retries, 5u);
  EXPECT_EQ(full->backoff_base, 2u);
  EXPECT_EQ(full->backoff_cap, 32u);
  EXPECT_EQ(full->kill_lane, 3u);
  EXPECT_EQ(full->kill_from, 10);
  EXPECT_EQ(full->kill_until, 20);
  EXPECT_TRUE(full->kills(3, 10));
  EXPECT_TRUE(full->kills(3, 20));
  EXPECT_FALSE(full->kills(3, 21));
  EXPECT_FALSE(full->kills(2, 15));
}

TEST(FaultPlanSpec, KillLaneWithoutEndIsOpenEnded) {
  std::string error;
  const auto plan = net::parse_fault_plan("chaos(kill_lane=0)", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_TRUE(plan->kills(0, 0));
  EXPECT_TRUE(plan->kills(0, 1u << 30));
}

TEST(FaultPlanSpec, CanonicalStringRoundTrips) {
  std::string error;
  for (const char* spec :
       {"chaos", "chaos(seed=9, drop=0.25)",
        "chaos(seed=2, corrupt=0.125, delay=0.5, retries=3)",
        "chaos(kill_lane=1, kill_from=4, kill_until=9)"}) {
    const auto plan = net::parse_fault_plan(spec, &error);
    ASSERT_TRUE(plan.has_value()) << spec << ": " << error;
    const auto again = net::parse_fault_plan(net::to_string(*plan), &error);
    ASSERT_TRUE(again.has_value())
        << net::to_string(*plan) << ": " << error;
    EXPECT_EQ(*again, *plan) << spec;
  }
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"mayhem(seed=1)",          // unknown plan name
        "chaos(drop=1.5)",         // probability above 1
        "chaos(delay=2.0)",        // probability above 1
        "chaos(frobnicate=1)",     // unknown parameter
        "chaos(seed=1, seed=2)",   // duplicate parameter
        "chaos(backoff_base=0)",   // backoff base must be >= 1
        "chaos(backoff_base=8, backoff_cap=2)",  // cap below base
        "chaos(children())"}) {    // fault plans take no children
    std::string error;
    EXPECT_FALSE(net::parse_fault_plan(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ------------------------------------------------- pure-hash determinism ----

TEST(FaultHash, IsAPureFunctionWithIndependentSalts) {
  // Same coordinates -> same hash, regardless of call order or repetition;
  // any coordinate or salt change decorrelates.
  const std::uint64_t h = net::fault_hash(7, 12, 3, 2, 0xd409);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(net::fault_hash(7, 12, 3, 2, 0xd409), h);
  }
  EXPECT_NE(net::fault_hash(8, 12, 3, 2, 0xd409), h);
  EXPECT_NE(net::fault_hash(7, 13, 3, 2, 0xd409), h);
  EXPECT_NE(net::fault_hash(7, 12, 4, 2, 0xd409), h);
  EXPECT_NE(net::fault_hash(7, 12, 3, 3, 0xd409), h);
  EXPECT_NE(net::fault_hash(7, 12, 3, 2, 0xc0de), h);
  for (std::uint64_t seed = 1; seed < 50; ++seed) {
    const double u = net::fault_unit(seed, 5, 1, 1, 0xde1a);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(BackoffDeterminism, ScheduleIsRecomputableFromCoordinates) {
  // The retry schedule is a pure function of (seed, round, lane, attempt):
  // recompute every wait independently -- capped exponential
  // base << (attempt - 1) plus the documented full jitter drawn from
  // fault_hash with the backoff salt -- and demand exact agreement.  This
  // is the contract that makes the schedule identical across thread
  // counts and under replay: nothing about it depends on execution order.
  net::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 42;
  plan.backoff_base = 2;
  plan.backoff_cap = 32;
  for (const Round round : {Round{1}, Round{7}, Round{1000}}) {
    for (std::uint64_t lane = 0; lane < 4; ++lane) {
      for (std::uint32_t attempt = 1; attempt <= 12; ++attempt) {
        std::uint64_t wait = std::uint64_t{2} << (attempt - 1);
        if (wait < 2 || wait > 32) wait = 32;
        const std::uint64_t jitter =
            net::fault_hash(plan.seed, round, lane, attempt, 0xb0ff) % wait;
        EXPECT_EQ(net::backoff_units(plan, round, lane, attempt),
                  wait + jitter)
            << "round=" << round << " lane=" << lane
            << " attempt=" << attempt;
      }
    }
  }
  // Saturation: far past the cap the deterministic wait stays in
  // [cap, 2 * cap) forever (cap plus jitter below cap).
  for (std::uint32_t attempt = 6; attempt < 40; ++attempt) {
    const std::uint64_t w = net::backoff_units(plan, 3, 0, attempt);
    EXPECT_GE(w, 32u);
    EXPECT_LT(w, 64u);
  }
}

// ---------------------------------------------- ChaosTransport unit tests ----

oracle::TimestampedGraph complete_graph(std::size_t n) {
  oracle::TimestampedGraph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      g.apply(EdgeEvent::insert(i, j), 1);
    }
  }
  return g;
}

TEST(ChaosTransportTest, KillLaneExhaustsRetriesAndDegradesDestinations) {
  const auto g = complete_graph(4);
  net::ShardFabric r(4, /*lanes_per_shard=*/1, /*shards=*/1);
  r.begin_round(3);
  net::Outbox out;
  out.send(1, net::WireMessage::edge_insert(Edge(0, 1)));
  r.stage_outbox(0, 0, out, g);

  net::FaultPlan plan;
  plan.enabled = true;
  plan.kill_lane = 0;
  plan.kill_from = 0;
  plan.kill_until = 100;
  plan.max_retries = 2;
  net::ChaosTransport transport(plan);
  net::Metrics metrics(4);
  net::LossReport loss;
  EXPECT_EQ(r.wire_epoch(0, 0), 1u);
  transport.exchange(r, 3, metrics, &loss);

  // All 3 attempts killed: the lane is lost, its destination reported,
  // the staged batch cleared (merge delivers nothing), the epoch bumped.
  const net::TransportStats& s = metrics.transport();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.drops, 3u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.lost_batches, 1u);
  EXPECT_GT(s.backoff_units, 0u);
  ASSERT_EQ(loss.lost_destinations.size(), 1u);
  EXPECT_EQ(loss.lost_destinations[0], 1u);
  EXPECT_EQ(r.wire_epoch(0, 0), 2u);
  r.merge();
  EXPECT_TRUE(r.inbox(1).payloads.empty());
}

TEST(ChaosTransportTest, CertainDelayParksCopiesThatArriveStale) {
  const auto g = complete_graph(3);
  net::ShardFabric r(3, /*lanes_per_shard=*/1, /*shards=*/1);
  net::FaultPlan plan;
  plan.enabled = true;
  plan.delay = 1.0;  // every attempt parked: the batch is lost both rounds
  plan.max_retries = 1;
  net::ChaosTransport transport(plan);
  net::Metrics metrics(3);

  r.begin_round(1);
  net::Outbox out1;
  out1.send(1, net::WireMessage::edge_insert(Edge(0, 1)));
  r.stage_outbox(0, 0, out1, g);
  net::LossReport loss;
  transport.exchange(r, 1, metrics, &loss);
  EXPECT_EQ(metrics.transport().delays, 2u);
  EXPECT_EQ(metrics.transport().lost_batches, 1u);
  EXPECT_EQ(metrics.transport().redeliveries, 0u);
  r.merge();

  // Next round the two parked copies surface; their seq (and pre-loss
  // epoch) mark them stale -- absorbed as redeliveries, never applied.
  r.begin_round(2);
  net::Outbox out2;
  out2.send(1, net::WireMessage::edge_insert(Edge(0, 1)));
  r.stage_outbox(0, 0, out2, g);
  loss.lost_destinations.clear();
  transport.exchange(r, 2, metrics, &loss);
  EXPECT_EQ(metrics.transport().redeliveries, 2u);
  r.merge();
  EXPECT_TRUE(r.inbox(1).payloads.empty());
}

TEST(ChaosTransportTest, DuplicatesAndReordersAreAbsorbed) {
  const auto g = complete_graph(4);
  net::ShardFabric reference(4, /*lanes_per_shard=*/2, /*shards=*/1);
  net::ShardFabric chaotic(4, /*lanes_per_shard=*/2, /*shards=*/1);
  auto stage = [&](net::ShardFabric& r) {
    r.begin_round(1);
    net::Outbox a;
    a.send(1, net::WireMessage::edge_insert(Edge(0, 1)));
    r.stage_outbox(0, 0, a, g);
    net::Outbox b;
    b.send(1, net::WireMessage::edge_insert(Edge(1, 3)));
    r.stage_outbox(1, 3, b, g);
  };
  stage(reference);
  const net::LaneTraffic want = reference.merge();

  net::FaultPlan plan;
  plan.enabled = true;
  plan.duplicate = 1.0;  // every delivered batch arrives twice
  plan.reorder = 1.0;    // every round services lanes in permuted order
  net::ChaosTransport transport(plan);
  net::Metrics metrics(4);
  stage(chaotic);
  net::LossReport loss;
  transport.exchange(chaotic, 1, metrics, &loss);
  EXPECT_FALSE(loss.any());
  EXPECT_EQ(metrics.transport().redeliveries, 2u);
  EXPECT_EQ(metrics.transport().reorders, 1u);
  EXPECT_EQ(metrics.transport().lost_batches, 0u);

  // Absorbed without a trace: the merge is identical to the fault-free one.
  EXPECT_EQ(chaotic.merge(), want);
  ASSERT_EQ(chaotic.inbox(1).payloads.size(), 2u);
  EXPECT_EQ(chaotic.inbox(1).payloads[0].from, 0u);
  EXPECT_EQ(chaotic.inbox(1).payloads[1].from, 3u);
}

// ------------------------------------------------------ ChaosEquivalence ----

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

/// A fault plan every delivery survives with near-certainty: retries are
/// generous, so the only way this plan diverges from fault-free is a bug.
net::FaultPlan recoverable_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.drop = 0.05;
  plan.corrupt = 0.03;
  plan.duplicate = 0.05;
  plan.reorder = 0.2;
  plan.delay = 0.03;
  plan.max_retries = 12;
  return plan;
}

/// Drives a fault-free sequential reference against a chaos engine at
/// `threads` lanes on the same event stream, asserting bit-identity after
/// every round, then metrics (modulo transport counters, which only the
/// chaos engine accrues) and a clean audit at the end.  Returns the chaos
/// engine's transport counters so callers can assert the run actually
/// exercised faults.
template <typename StateFn>
net::TransportStats drive_chaos_lockstep(std::size_t n,
                                         const net::NodeFactory& f,
                                         net::Workload& wl,
                                         const StateFn& state_of,
                                         const net::FaultPlan& plan,
                                         std::size_t threads,
                                         const testing::RoundAudit& audit) {
  net::Simulator clean(n, f, {});
  net::SimulatorConfig cfg;
  cfg.threads = threads;
  cfg.threads_inline_cutoff = 0;  // race every dispatch
  cfg.faults = plan;
  net::Simulator chaos(n, f, cfg);
  std::size_t rounds = 0;
  while (rounds < 100000 && !(wl.finished() && clean.all_consistent())) {
    net::WorkloadObservation obs{clean.graph(), clean.round() + 1,
                                 clean.all_consistent()};
    const std::vector<EdgeEvent> batch =
        wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    const net::RoundResult rc = clean.step(batch);
    const net::RoundResult rx = chaos.step(batch);
    EXPECT_FALSE(chaos.last_round_had_loss());
    if (rc != rx) {
      ADD_FAILURE() << "chaos engine diverged at round " << rc.round
                    << " (threads=" << threads << " seed=" << plan.seed
                    << ")";
      return chaos.metrics().transport();
    }
    EXPECT_EQ(clean.consistency(), chaos.consistency())
        << "round " << rc.round;
    for (NodeId v = 0; v < n; ++v) {
      if (!(state_of(clean, v) == state_of(chaos, v))) {
        ADD_FAILURE() << "node " << v << " state diverged at round "
                      << rc.round << " (threads=" << threads
                      << " seed=" << plan.seed << ")";
        return chaos.metrics().transport();
      }
    }
    ++rounds;
  }
  EXPECT_TRUE(clean.all_consistent());
  expect_metrics_equal(clean.metrics(), chaos.metrics());
  EXPECT_EQ(chaos.degraded_count(), 0u);
  EXPECT_EQ(chaos.metrics().transport().lost_batches, 0u)
      << "plan was supposed to be recoverable";
  if (audit) {
    EXPECT_EQ(audit(chaos), std::nullopt)
        << "threads=" << threads << " seed=" << plan.seed;
  }
  return chaos.metrics().transport();
}

template <typename NodeT>
auto known_edges_of() {
  return [](const net::Simulator& sim, NodeId v) {
    return dynamic_cast<const NodeT&>(sim.node(v)).known_edges();
  };
}

TEST(ChaosEquivalence, TriangleBitIdenticalAcrossThreadsAndSeeds) {
  // The acceptance matrix: threads in {1, 2, 4, 8} x three fault seeds.
  // Whether each per-fault counter fires in a given cell depends on the
  // seeded coins, so the "faults actually happened" assertion aggregates
  // across the matrix -- where every fault kind is overwhelming.
  net::TransportStats total;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    for (const std::uint64_t seed : {5u, 11u, 23u}) {
      dynamics::RandomChurnParams cp;
      cp.n = 24;
      cp.target_edges = 48;
      cp.max_changes = 4;
      cp.rounds = 60;
      cp.seed = 0xC0u;
      dynamics::RandomChurnWorkload wl(cp);
      total += drive_chaos_lockstep(
          cp.n, testing::factory_of<core::TriangleNode>(), wl,
          known_edges_of<core::TriangleNode>(), recoverable_plan(seed),
          threads, core::audit_triangle);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(total.batches, 0u);
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(total.drops, 0u);
  EXPECT_GT(total.corruptions, 0u);
  EXPECT_GT(total.redeliveries, 0u);
  EXPECT_GT(total.reorders, 0u);
  EXPECT_GT(total.delays, 0u);
  EXPECT_GT(total.backoff_units, 0u);
  EXPECT_GT(total.wire_bytes, 0u);
}

TEST(ChaosEquivalence, Robust2HopBitIdenticalUnderChaos) {
  dynamics::RandomChurnParams cp;
  cp.n = 28;
  cp.target_edges = 56;
  cp.max_changes = 4;
  cp.rounds = 80;
  cp.seed = 0xC1u;
  dynamics::RandomChurnWorkload wl(cp);
  drive_chaos_lockstep(cp.n, testing::factory_of<core::Robust2HopNode>(), wl,
                       known_edges_of<core::Robust2HopNode>(),
                       recoverable_plan(17), /*threads=*/2,
                       core::audit_robust2hop);
}

TEST(ChaosEquivalence, TransportCountersReplayIdentically) {
  // The whole fault schedule is counter-based: the same scenario under the
  // same plan accrues *exactly* the same TransportStats on every run and
  // at every thread count with the same lane structure (threads = 0 and
  // threads = 1 both run one lane).
  auto run_one = [](std::size_t threads) {
    dynamics::RandomChurnParams cp;
    cp.n = 20;
    cp.target_edges = 40;
    cp.max_changes = 3;
    cp.rounds = 50;
    cp.seed = 0xC2u;
    dynamics::RandomChurnWorkload wl(cp);
    net::SimulatorConfig cfg;
    cfg.threads = threads;
    cfg.threads_inline_cutoff = 0;
    cfg.faults = recoverable_plan(29);
    net::Simulator sim(cp.n, testing::factory_of<core::TriangleNode>(), cfg);
    net::run_workload(sim, wl, 100000);
    return sim.metrics().transport();
  };
  const net::TransportStats seq = run_one(0);
  EXPECT_GT(seq.batches, 0u);
  EXPECT_TRUE(run_one(0) == seq);  // replay
  EXPECT_TRUE(run_one(1) == seq);  // same lane structure, threaded barrier
}

TEST(ChaosEquivalence, RecordedTraceBytesIdenticalUnderChaos) {
  // Record/replay end-to-end: the same registry scenario recorded under a
  // chaos plan emits a byte-equal trace and an identical timing-free
  // summary (modulo the transport_* counters, which only the chaos run
  // accrues) -- adaptive workloads observe the engine, so any behavioral
  // drift under faults would change the recorded bytes.
  auto run_one = [](const net::FaultPlan& plan) {
    detect::SessionOptions opts;
    opts.detector = "triangle";
    opts.scenario = "multi-community-churn";
    opts.quick = true;
    opts.record = true;
    opts.sim.faults = plan;
    std::string error;
    auto session = detect::Session::open(std::move(opts), &error);
    EXPECT_TRUE(session.has_value()) << error;
    session->run();
    std::ostringstream trace;
    net::write_trace(trace, session->recorded());
    return std::make_pair(trace.str(), session->summary());
  };
  const auto [trace_clean, sum_clean] = run_one({});
  const auto [trace_chaos, sum_chaos] = run_one(recoverable_plan(31));
  EXPECT_FALSE(trace_clean.empty());
  EXPECT_EQ(trace_clean, trace_chaos);
  EXPECT_EQ(sum_clean.rounds, sum_chaos.rounds);
  EXPECT_EQ(sum_clean.changes, sum_chaos.changes);
  EXPECT_EQ(sum_clean.inconsistent_rounds, sum_chaos.inconsistent_rounds);
  EXPECT_EQ(sum_clean.messages, sum_chaos.messages);
  EXPECT_EQ(sum_clean.payload_bits, sum_chaos.payload_bits);
  EXPECT_DOUBLE_EQ(sum_clean.amortized, sum_chaos.amortized);
  EXPECT_EQ(sum_clean.transport_retries, 0u);
  EXPECT_GT(sum_chaos.transport_retries + sum_chaos.transport_redeliveries,
            0u);
}

TEST(LocalTransportTest, FaultFreeEngineAccruesNoTransportCounters) {
  // The default path must not even tick the counters: the {"max": 0}
  // gates in perf_baseline.json rely on it.
  dynamics::RandomChurnParams cp;
  cp.n = 16;
  cp.target_edges = 32;
  cp.max_changes = 3;
  cp.rounds = 40;
  cp.seed = 0xC3u;
  dynamics::RandomChurnWorkload wl(cp);
  net::Simulator sim(cp.n, testing::factory_of<core::TriangleNode>(), {});
  net::run_workload(sim, wl, 100000);
  EXPECT_TRUE(sim.metrics().transport() == net::TransportStats{});
  EXPECT_EQ(sim.degraded_count(), 0u);
}

// --------------------------------------------------------- degraded mode ----

TEST(DegradedMode, KillWindowDegradesHonestlyAndRecovers) {
  // A hard outage: with one lane, kill_lane=0 loses *every* batch in the
  // window, the (deliberately small) retries exhaust, and the engine
  // enters degraded mode.  The guarantees under test, every single round:
  //
  //   * a degraded node is reported inconsistent -- the engine never
  //     claims knowledge the "network" failed to deliver,
  //   * the detector's query surface answers kInconsistent for it,
  //   * the oracle audit stays sound mid-outage,
  //
  // and once the window closes, flicker recovery re-converges the engine:
  // no degraded nodes, all consistent, clean audit.
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
  net::SimulatorConfig cfg;
  cfg.faults = plan;
  net::Simulator sim(cp.n, testing::factory_of<core::TriangleNode>(), cfg);
  std::string error;
  const auto detector = detect::build_detector("triangle", &error);
  ASSERT_NE(detector, nullptr) << error;

  bool saw_loss = false;
  bool queried_degraded = false;
  std::size_t rounds = 0;
  while (rounds < 100000 && !(wl.finished() && sim.all_consistent())) {
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    const std::vector<EdgeEvent> batch =
        wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    sim.step(batch);
    ++rounds;
    saw_loss = saw_loss || sim.last_round_had_loss();
    const auto& degraded = sim.degraded();
    for (NodeId v = 0; v < cp.n; ++v) {
      if (!degraded[v]) continue;
      ASSERT_FALSE(sim.consistency()[v])
          << "degraded node " << v << " claimed consistency at round "
          << sim.round();
      if (!queried_degraded && !sim.graph().neighbors(v).empty()) {
        const Edge e(v, sim.graph().neighbors(v).front());
        EXPECT_EQ(detector->query(sim, v, detect::EdgeQuery{e}),
                  net::Answer::kInconsistent);
        queried_degraded = true;
      }
    }
    ASSERT_EQ(core::audit_triangle(sim), std::nullopt)
        << "audit unsound at round " << sim.round();
  }
  // The outage must actually have bitten for this test to mean anything.
  ASSERT_TRUE(saw_loss);
  EXPECT_TRUE(queried_degraded);
  const net::TransportStats& s = sim.metrics().transport();
  EXPECT_GT(s.lost_batches, 0u);
  EXPECT_GT(s.degraded_marks, 0u);
  EXPECT_GT(s.recovery_events, 0u);

  // Delivery resumed (the drain above ran past kill_until): the engine
  // re-converged through real flicker churn.
  EXPECT_TRUE(sim.all_consistent());
  EXPECT_EQ(sim.degraded_count(), 0u);
  EXPECT_FALSE(sim.last_round_had_loss());
  EXPECT_EQ(core::audit_triangle(sim), std::nullopt);

  // And it keeps working: more churn after the outage behaves normally.
  dynamics::RandomChurnParams cp2 = cp;
  cp2.rounds = 15;
  cp2.seed = 0xC5u;
  dynamics::RandomChurnWorkload wl2(cp2);
  net::run_workload(sim, wl2, 100000);
  EXPECT_TRUE(sim.all_consistent());
  EXPECT_EQ(core::audit_triangle(sim), std::nullopt);
}

TEST(DegradedMode, LossDoesNotDependOnTheInlineCutoff) {
  // A lost frame degrades the destinations staged in its slot, so which
  // nodes degrade may depend on the slot grid (shards x lanes) and the
  // plan, never on whether a round was small enough to run inline.  At
  // n = 24 every round is under the default cutoff: one engine walks the
  // grid inline every round, the other (cutoff 0) forks every round, and
  // both must lose the same frames and recover identically.
  net::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 13;
  plan.kill_lane = 0;
  plan.kill_from = 5;
  plan.kill_until = 12;
  plan.max_retries = 0;
  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 48;
  cp.max_changes = 4;
  cp.rounds = 30;
  cp.seed = 0xC6u;
  dynamics::RandomChurnWorkload wl(cp);
  net::SimulatorConfig inline_cfg;
  inline_cfg.threads = 4;
  inline_cfg.faults = plan;
  ASSERT_GE(inline_cfg.threads_inline_cutoff, cp.n);
  net::SimulatorConfig forked_cfg = inline_cfg;
  forked_cfg.threads_inline_cutoff = 0;
  const auto factory = testing::factory_of<core::TriangleNode>();
  net::Simulator inlined(cp.n, factory, inline_cfg);
  net::Simulator forked(cp.n, factory, forked_cfg);
  bool saw_partial_loss = false;
  std::size_t rounds = 0;
  while (rounds < 100000 && !(wl.finished() && inlined.all_consistent())) {
    net::WorkloadObservation obs{inlined.graph(), inlined.round() + 1,
                                 inlined.all_consistent()};
    const std::vector<EdgeEvent> batch =
        wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    const net::RoundResult ri = inlined.step(batch);
    const net::RoundResult rf = forked.step(batch);
    ASSERT_EQ(ri, rf) << "diverged at round " << ri.round;
    ASSERT_EQ(inlined.degraded(), forked.degraded())
        << "degraded sets differ at round " << ri.round;
    ASSERT_EQ(inlined.consistency(), forked.consistency());
    saw_partial_loss = saw_partial_loss ||
                       (inlined.last_round_had_loss() &&
                        inlined.degraded_count() > 0 &&
                        inlined.degraded_count() < cp.n);
    ++rounds;
  }
  // Lane 0's frame held only part of the round's traffic.
  ASSERT_TRUE(saw_partial_loss);
  EXPECT_TRUE(inlined.metrics().transport() == forked.metrics().transport());
  EXPECT_TRUE(forked.all_consistent());
  EXPECT_EQ(core::audit_triangle(inlined), std::nullopt);
}

TEST(DegradedMode, OutagesStaySoundAtEveryLaneCount) {
  // The same outage plan at 1, 2, 4, and 8 lanes (killing lane 0 only, so
  // multi-lane runs lose a *shard* of the traffic): soundness and
  // re-convergence are lane-structure independent even though the
  // degraded sets differ.
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    net::FaultPlan plan;
    plan.enabled = true;
    plan.seed = 13;
    plan.kill_lane = 0;
    plan.kill_from = 5;
    plan.kill_until = 12;
    plan.max_retries = 0;
    dynamics::RandomChurnParams cp;
    cp.n = 24;
    cp.target_edges = 48;
    cp.max_changes = 4;
    cp.rounds = 30;
    cp.seed = 0xC6u;
    dynamics::RandomChurnWorkload wl(cp);
    net::SimulatorConfig cfg;
    cfg.threads = threads;
    cfg.threads_inline_cutoff = 0;
    cfg.faults = plan;
    net::Simulator sim(cp.n, testing::factory_of<core::TriangleNode>(), cfg);
    std::size_t rounds = 0;
    while (rounds < 100000 && !(wl.finished() && sim.all_consistent())) {
      net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                   sim.all_consistent()};
      const std::vector<EdgeEvent> batch =
          wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
      sim.step(batch);
      ++rounds;
      ASSERT_EQ(core::audit_triangle(sim), std::nullopt)
          << "threads=" << threads << " round " << sim.round();
    }
    EXPECT_TRUE(sim.all_consistent()) << "threads=" << threads;
    EXPECT_EQ(sim.degraded_count(), 0u) << "threads=" << threads;
    EXPECT_EQ(core::audit_triangle(sim), std::nullopt)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dynsub
