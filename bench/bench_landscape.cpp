// EXP-LAND -- the Section 1.2 complexity landscape, regenerated.
//
// One row per problem the paper places on its map, all measured at a
// common reference scale: the O(1) problems under random churn, the
// hard problems under their lower-bound adversaries.  This is the "detailed
// picture of the complexity landscape for ultra fast graph finding" as an
// executable table.
//
// Every workload is pulled from the scenario registry and every algorithm
// from the detector registry, both by spec string (the same strings
// `dynsub_run --scenario` / `--detector` accept), so the landscape and the
// CLI can never drift apart -- and scaling a row to a new n or swapping a
// row's algorithm is editing a string.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "net/faults.hpp"

namespace dynsub {
namespace {

std::string num(std::size_t v) { return std::to_string(v); }

/// `detector` on `scenario` under the engine settings `sim`.
harness::RunSummary run_spec(const std::string& detector,
                             const std::string& scenario,
                             const net::SimulatorConfig& sim = {}) {
  return bench::run_session(
             {.detector = detector, .scenario = scenario, .sim = sim})
      .summary;
}

/// One row of the paper's table: a problem, its bound, and the (algorithm,
/// adversary) pair that measures it, as a detector spec and a scenario
/// spec.  Adjacent rows naming the same pair share one run.  `perf` rows
/// also record `<key>.rounds_per_sec`, which bench/check_regression.py
/// tracks across commits.
struct Row {
  const char* problem;
  const char* key;
  const char* bound;
  std::string detector;
  std::string scenario;
  bool perf;
};

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "landscape", "EXP-LAND",
                     "Section 1.2: the complexity landscape",
                     "clique membership and 4-/5-cycle listing are ultra "
                     "fast (O(1)); everything else on the map is "
                     "polynomially hard");

  const std::size_t n = bench.quick() ? 96 : 256;
  const std::size_t rounds = bench.quick() ? 120 : 300;
  const std::uint64_t seed = bench.seed_or(0x1A2D);

  // The O(1) problems under random churn (k-clique membership is answered
  // by the very same triangle structure on the same event stream, Cor 1),
  // the hard problems under their lower-bound adversaries.
  const std::string churn = "churn(n=" + num(n) + ", target=" + num(2 * n) +
                            ", max=6, rounds=" + num(rounds) +
                            ", seed=" + num(seed) + ")";
  // Constant plant count: constant change rate across n.
  auto planted_cycle = [&](std::size_t k) {
    return "planted-cycle(n=" + num(n) + ", k=" + num(k) +
           ", plants=2, noise=1, period=" + num(12 + k) +
           ", rounds=" + num(rounds) + ", seed=" + num(seed + 1) + ")";
  };
  const Row rows[] = {
      {"triangle membership (Thm 1)", "triangle_membership", "O(1)",
       "triangle", churn, true},
      {"k-clique membership (Cor 1)", "clique_membership", "O(1)", "triangle",
       churn, false},
      {"robust 2-hop (Thm 7)", "robust_2hop", "O(1)", "robust2hop", churn,
       true},
      {"robust 3-hop (Thm 6)", "robust_3hop", "O(1)", "robust3hop", churn,
       true},
      {"4-cycle listing (Thm 5)", "cycle4_listing", "O(1)", "robust3hop",
       planted_cycle(4), true},
      {"5-cycle listing (Thm 5)", "cycle5_listing", "O(1)", "robust3hop",
       planted_cycle(5), true},
      {"P3 membership / 2-hop (Thm 2)", "p3_membership_lb", "Theta~(n)",
       "full2hop", "membership-lb(pattern=p3, t=" + num(n) + ")", false},
      {"diamond membership (Thm 2)", "diamond_membership_lb",
       "Omega(n/log n)", "flood2",
       "membership-lb(pattern=diamond, t=" + num(n) + ")", false},
      {"6-cycle listing (Thm 4)", "cycle6_listing_lb", "Omega(sqrt n/log n)",
       "flood3",
       "cycle-lb(d=" + num(bench.quick() ? 8 : 14) +
           ", seed=" + num(seed + 2) + ")",
       false},
  };

  std::printf("\n  %-34s %-22s %-10s\n",
              bench.quick() ? "problem (measured at n~96)"
                            : "problem (measured at n~256)",
              "paper bound", "measured");
  std::printf("  %-34s %-22s %-10s\n", "---------------------------",
              "-----------", "--------");
  harness::RunSummary s;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& r = rows[i];
    if (i == 0 || r.detector != rows[i - 1].detector ||
        r.scenario != rows[i - 1].scenario) {
      s = run_spec(r.detector, r.scenario);
    }
    std::printf("  %-34s %-22s %-10.2f\n", r.problem, r.bound, s.amortized);
    bench.metric(r.key, s.amortized);
    if (r.perf) {
      bench.metric(std::string(r.key) + ".rounds_per_sec", s.rounds_per_sec);
    }
  }

  // --- Engine throughput on the sparse-churn regime. -----------------------
  // Serialized toggles with stabilization waits: most rounds touch O(1)
  // nodes, which is exactly where the active-set engine's O(active) rounds
  // beat the seed engine's Theta(n) sweep.  These rounds_per_sec metrics
  // land in BENCH_landscape.json and are guarded by
  // bench/check_regression.py.
  {
    const std::size_t sn = bench.quick() ? 256 : 1024;
    const std::size_t toggles = bench.quick() ? 150 : 400;
    const std::string spec = "serialized-churn(n=" + num(sn) + ", target=" +
                             num(2 * sn) + ", toggles=" + num(toggles) +
                             ", seed=" + num(bench.seed_or(0x51AB)) + ")";
    const harness::RunSummary tri = run_spec("triangle", spec);
    const harness::RunSummary r2h = run_spec("robust2hop", spec);
    std::printf(
        "\n  sparse-churn engine throughput (n=%zu, %zu serialized "
        "toggles):\n"
        "    triangle   %12.0f rounds/sec\n"
        "    robust2hop %12.0f rounds/sec\n",
        sn, toggles, tri.rounds_per_sec, r2h.rounds_per_sec);
    bench.metric("sparse_churn.n", static_cast<double>(sn));
    bench.metric("sparse_churn.triangle.rounds_per_sec", tri.rounds_per_sec);
    bench.metric("sparse_churn.robust2hop.rounds_per_sec",
                 r2h.rounds_per_sec);
  }

  // --- The n = 10^5 sparse-engine row. -------------------------------------
  // The active-set engine's per-round cost does not scale with n, so the
  // same serialized-toggle regime runs at n = 100000 in both quick and
  // full mode (quick just toggles less).  This is the landscape's witness
  // that the engine holds its throughput two decades past the seed scale.
  {
    const std::size_t big_n = 100000;
    const std::size_t toggles = bench.quick() ? 60 : 300;
    const harness::RunSummary big = run_spec(
        "triangle", "serialized-churn(n=" + num(big_n) + ", target=" +
                        num(2 * big_n) + ", toggles=" + num(toggles) +
                        ", seed=" + num(bench.seed_or(0x51AB) + 1) + ")");
    std::printf(
        "    triangle   %12.0f rounds/sec at n=%zu (%zu toggles, "
        "amortized %.2f)\n",
        big.rounds_per_sec, big_n, toggles, big.amortized);
    bench.metric("sparse_churn_100k.n", static_cast<double>(big_n));
    bench.metric("sparse_churn_100k.triangle.rounds_per_sec",
                 big.rounds_per_sec);
    bench.metric("sparse_churn_100k.triangle.amortized", big.amortized);
  }

  // --- Chaos-transport row: the fault-injection tax at n = 10^5. -----------
  // The same serialized-toggle stream runs twice: once on the default
  // LocalTransport and once through ChaosTransport with 1% batch drops.
  // Recoverable faults replay byte-identically (ChaosEquivalence), so the
  // amortized measure must match exactly; the throughput ratio is the pure
  // price of checksums + retries.  The fault-free row's retry/redelivery
  // counters are pinned to zero in perf_baseline.json ({"max": 0}): any
  // transport activity on the LocalTransport path is a bug, not noise.
  {
    const std::size_t big_n = 100000;
    const std::size_t toggles = bench.quick() ? 60 : 300;
    const std::string spec =
        "serialized-churn(n=" + num(big_n) + ", target=" + num(2 * big_n) +
        ", toggles=" + num(toggles) + ", seed=" +
        num(bench.seed_or(0x51AB) + 3) + ")";
    std::string perr;
    const auto chaos = net::parse_fault_plan(
        "chaos(seed=" + num(bench.seed_or(0x51AB)) + ", drop=0.01)", &perr);
    DYNSUB_CHECK(chaos.has_value());
    const harness::RunSummary clean = run_spec("triangle", spec);
    const harness::RunSummary faulty =
        run_spec("triangle", spec, {.faults = *chaos});
    DYNSUB_CHECK(faulty.amortized == clean.amortized);
    DYNSUB_CHECK(faulty.rounds == clean.rounds);
    std::printf(
        "\n  chaos transport (n=%zu, drop=0.01):\n"
        "    fault-free %12.0f rounds/sec (retries %llu)\n"
        "    chaos      %12.0f rounds/sec (drops %llu, retries %llu)\n",
        big_n, clean.rounds_per_sec,
        static_cast<unsigned long long>(clean.transport_retries),
        faulty.rounds_per_sec,
        static_cast<unsigned long long>(faulty.transport_drops),
        static_cast<unsigned long long>(faulty.transport_retries));
    bench.metric("chaos_100k.fault_free.rounds_per_sec",
                 clean.rounds_per_sec);
    bench.metric("chaos_100k.fault_free.retries",
                 static_cast<double>(clean.transport_retries));
    bench.metric("chaos_100k.fault_free.redeliveries",
                 static_cast<double>(clean.transport_redeliveries));
    bench.metric("chaos_100k.drop.rounds_per_sec", faulty.rounds_per_sec);
    bench.metric("chaos_100k.drop.retries",
                 static_cast<double>(faulty.transport_retries));
    bench.metric("chaos_100k.drop.lost_batches",
                 static_cast<double>(faulty.transport_lost_batches));
  }

  // --- Parallel-engine rows: heavy churn at n = 10^5 and 10^6. -------------
  // Random churn with thousands of changes per round puts tens of
  // thousands of nodes in every round's active set -- the regime where
  // sharding Phase 1/Phase 3 across worker lanes pays.  Each row runs the
  // same event stream through the sequential engine (t0) and the parallel
  // engine (t<T>); the engines are bit-identical (locked by the
  // ParallelEquivalence suite), so the ratio is a pure engine-speed
  // measurement.  The serialized-toggle rows above stay sequential on
  // purpose: O(1)-active rounds have nothing to shard.
  {
    // Lane count: --threads overrides the default, which is 4 clamped to
    // the machine's core count (oversubscribing a 1-core runner would
    // measure context-switch thrash, not the engine; at 1 lane the
    // engine is the sequential one).  Clamped to >= 1 so `.par.threads`
    // reports a lane count: --threads 0 and 1 are one engine.  The
    // metric keys are lane-count independent (`.seq.` / `.par.` +
    // `.par.threads`), so the perf gate's required keys exist for every
    // override -- a knob that makes the bench emit a document the
    // project's own gate rejects would be a trap.
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t lanes = std::max<std::size_t>(
        1, bench.threads_or(std::min<std::size_t>(4, hw)));
    std::printf("\n  parallel engine, heavy churn (threads=%zu):\n", lanes);
    auto parallel_row = [&](const char* key, std::size_t pn,
                            std::size_t per_round, std::size_t rounds_p) {
      const std::string spec =
          "churn(n=" + num(pn) + ", target=" + num(2 * pn) + ", max=" +
          num(per_round) + ", rounds=" + num(rounds_p) + ", seed=" +
          num(bench.seed_or(0x51AB) + 2) + ")";
      // Best-of-2, alternating seq/par: shared runners throttle over a
      // bench's lifetime, so a single seq-then-par pass systematically
      // penalizes whichever engine runs second.  Alternating cancels the
      // order bias; taking the max filters throttle dips.  Both engines
      // are bit-identical at every lane count (ParallelEquivalence), so
      // repeats measure speed only, never behavior.
      auto measure = [&](std::size_t threads) {
        return run_spec("triangle", spec, {.threads = threads});
      };
      auto better = [](const harness::RunSummary& a,
                       const harness::RunSummary& b) {
        return a.rounds_per_sec >= b.rounds_per_sec ? a : b;
      };
      harness::RunSummary seq = measure(0);
      harness::RunSummary par = measure(lanes);
      seq = better(seq, measure(0));
      par = better(par, measure(lanes));
      const double speedup = par.rounds_per_sec > 0.0 && seq.rounds_per_sec > 0.0
                                 ? par.rounds_per_sec / seq.rounds_per_sec
                                 : 0.0;
      std::printf(
          "    triangle n=%-8zu %9.0f r/s sequential, %9.0f r/s at t=%zu "
          "(%.2fx)\n",
          pn, seq.rounds_per_sec, par.rounds_per_sec, lanes, speedup);
      const std::string k(key);
      bench.metric(k + ".n", static_cast<double>(pn));
      bench.metric(k + ".seq.rounds_per_sec", seq.rounds_per_sec);
      bench.metric(k + ".par.rounds_per_sec", par.rounds_per_sec);
      bench.metric(k + ".par.threads", static_cast<double>(lanes));
      bench.metric(k + ".speedup", speedup);
    };
    parallel_row("churn_100k", 100000, bench.quick() ? 400 : 2000,
                 bench.quick() ? 25 : 60);
    parallel_row("churn_1m", 1000000, bench.quick() ? 1000 : 5000,
                 bench.quick() ? 10 : 30);
    // --- Shard-engine rows on the churn_1m regime. -----------------------
    // The same heavy-churn stream runs on one Router (s1) and partitioned
    // into S per-shard Routers (default 4; --shards overrides) trading
    // encoded lane-batch frames at the round barrier.  The engines are
    // bit-identical (ShardEquivalence), so the ratio is pure frame-seam
    // overhead -- and the fault-free cross-shard path must never touch
    // the retry machinery: the retries / lost_batches counters below are
    // pinned to {"max": 0} in perf_baseline.json.  Like `.par.`, the
    // `.sharded.` keys are shard-count independent (`.sharded.shards`
    // records the actual S), so the perf gate's required keys exist for
    // every --shards override.
    {
      const std::size_t shards = std::max<std::size_t>(1, bench.shards_or(4));
      const std::string spec =
          "churn(n=" + num(1000000) + ", target=" + num(2000000) + ", max=" +
          num(bench.quick() ? 1000 : 5000) + ", rounds=" +
          num(bench.quick() ? 10 : 30) + ", seed=" +
          num(bench.seed_or(0x51AB) + 2) + ")";
      auto measure = [&](std::size_t s) {
        return run_spec("triangle", spec, {.threads = lanes, .shards = s});
      };
      const harness::RunSummary one = measure(1);
      const harness::RunSummary sharded = measure(shards);
      DYNSUB_CHECK(sharded.amortized == one.amortized);
      DYNSUB_CHECK(sharded.rounds == one.rounds);
      DYNSUB_CHECK(sharded.messages == one.messages);
      std::printf(
          "    triangle n=1000000  %9.0f r/s at s=1, %9.0f r/s at s=%zu "
          "(t=%zu; retries %llu, lost %llu)\n",
          one.rounds_per_sec, sharded.rounds_per_sec, shards, lanes,
          static_cast<unsigned long long>(sharded.transport_retries),
          static_cast<unsigned long long>(sharded.transport_lost_batches));
      bench.metric("churn_1m.s1.rounds_per_sec", one.rounds_per_sec);
      bench.metric("churn_1m.sharded.rounds_per_sec",
                   sharded.rounds_per_sec);
      bench.metric("churn_1m.sharded.shards", static_cast<double>(shards));
      bench.metric("churn_1m.sharded.retries",
                   static_cast<double>(sharded.transport_retries));
      bench.metric("churn_1m.sharded.lost_batches",
                   static_cast<double>(sharded.transport_lost_batches));
    }
    // The n = 10^7 row the sharded routing fabric was built to reach: the
    // dense bootstrap alone stages 10^7 outboxes through the Router, and
    // the heavy-churn rounds keep tens of thousands of nodes active.
    // Emitted in quick mode too (with fewer, lighter rounds) because the
    // perf gate treats a missing guarded metric as a hard failure.
    parallel_row("churn_10m", 10000000, bench.quick() ? 2000 : 10000,
                 bench.quick() ? 3 : 8);
  }

  std::printf(
      "\n  The O(1) rows stay constant as n grows; the bottom rows grow with\n"
      "  n (see bench_t2_membership_lb / bench_t4_cycle_lb for the sweeps).\n");
  return bench.finish();
}
