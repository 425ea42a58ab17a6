// EXP-F2/F3 -- Figures 2 and 3: a census of the temporal edge patterns.
//
// The paper's figures define which subsets of the 2-/3-hop neighborhoods
// the structures maintain: pattern (a) -- far edge at least as new as the
// connecting edge -- and pattern (b) -- the triangle's "older than both"
// far edge (Fig. 2) / the 3-hop path with the far edge newest (Fig. 3).
// This bench runs churn to a stable point and counts, across all nodes,
// how much of each structure's knowledge each pattern accounts for --
// regenerating the figures as numbers (and double-checking the oracle
// decompositions sum up).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/robust3hop.hpp"
#include "core/triangle.hpp"
#include "oracle/robust_sets.hpp"

namespace dynsub {
namespace {

struct Fig2Census {
  std::size_t incident = 0;
  std::size_t pattern_a = 0;  // robust 2-hop beyond incident
  std::size_t pattern_b = 0;  // older-than-both triangle far edges
};

struct Fig3Census {
  std::size_t len1 = 0;  // discovery paths by length at stabilization
  std::size_t len2 = 0;
  std::size_t len3 = 0;
};

/// Random churn to a stable point under `detector`.
bench::SessionRun run_churn(const std::string& detector, std::size_t n,
                            std::uint64_t seed, const std::string& rounds) {
  return bench::run_session(
      {.detector = detector,
       .scenario = bench::random_churn_spec(n, 3 * n, rounds, seed)});
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "f2_patterns", "EXP-F2",
                     "Figures 2/3: temporal edge pattern census",
                     "the structures' knowledge decomposes exactly into the "
                     "figures' temporal patterns (incident / pattern (a) / "
                     "pattern (b); discovery-path lengths 1/2/3)");
  const std::size_t n = bench.quick() ? 64 : 192;
  const std::string rounds = bench.quick() ? "120" : "300";

  {
    const auto run = run_churn("triangle", n, 0xF2, rounds);
    const auto& sim = run.session.sim();
    const auto nodes =
        sim.store().as<core::TriangleNode>("figure 2 pattern census");
    Fig2Census census;
    std::size_t mismatch = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto r2 = oracle::robust_2hop(sim.graph(), v);
      const auto t2 = oracle::triangle_pattern_set(sim.graph(), v);
      const auto known = nodes[v].known_edges();
      for (const auto& [e, ts] : known) {
        (void)ts;
        if (e.touches(v)) {
          ++census.incident;
        } else if (r2.contains(e)) {
          ++census.pattern_a;
        } else {
          ++census.pattern_b;
        }
        mismatch += !t2.contains(e);
      }
      mismatch += (t2.size() != known.size());
    }
    const double total = static_cast<double>(
        census.incident + census.pattern_a + census.pattern_b);
    std::printf("  knowledge entries across all nodes: %.0f\n", total);
    std::printf("    incident edges        : %-7zu (%.1f%%)\n", census.incident,
                100.0 * census.incident / total);
    std::printf("    pattern (a), Fig 2a   : %-7zu (%.1f%%)\n", census.pattern_a,
                100.0 * census.pattern_a / total);
    std::printf("    pattern (b), Fig 2b   : %-7zu (%.1f%%)\n", census.pattern_b,
                100.0 * census.pattern_b / total);
    std::printf("    oracle decomposition mismatches: %zu (must be 0)\n",
                mismatch);
    bench.metric("fig2_incident", static_cast<double>(census.incident));
    bench.metric("fig2_pattern_a", static_cast<double>(census.pattern_a));
    bench.metric("fig2_pattern_b", static_cast<double>(census.pattern_b));
    bench.metric("fig2_mismatches", static_cast<double>(mismatch));
  }

  bench::print_block_header(
      "EXP-F3", "Figure 3: temporal patterns of the robust 3-hop set",
      "discovery paths by length: 1 (incident), 2 (Fig 3a), 3 (Fig 3b)");

  {
    const auto run = run_churn("robust3hop", n, 0xF3, rounds);
    const auto& sim = run.session.sim();
    const auto nodes =
        sim.store().as<core::Robust3HopNode>("figure 3 path census");
    Fig3Census census;
    std::size_t robust_missing = 0;
    for (NodeId v = 0; v < n; ++v) {
      const core::Robust3HopNode& node = nodes[v];
      for (const auto& pk : node.paths()) {
        if (pk.length() == 1) ++census.len1;
        if (pk.length() == 2) ++census.len2;
        if (pk.length() == 3) ++census.len3;
      }
      const auto r3 = oracle::robust_3hop(sim.graph(), v);
      const auto known = node.known_edges();
      for (const Edge& e : r3) robust_missing += !known.contains(e);
    }
    const double total =
        static_cast<double>(census.len1 + census.len2 + census.len3);
    std::printf("  discovery paths across all nodes: %.0f\n", total);
    std::printf("    length 1 (incident)   : %-8zu (%.1f%%)\n", census.len1,
                100.0 * census.len1 / total);
    std::printf("    length 2, Fig 3a      : %-8zu (%.1f%%)\n", census.len2,
                100.0 * census.len2 / total);
    std::printf("    length 3, Fig 3b      : %-8zu (%.1f%%)\n", census.len3,
                100.0 * census.len3 / total);
    std::printf("    robust 3-hop edges missing at stabilization: %zu "
                "(must be 0)\n",
                robust_missing);
    bench.metric("fig3_len1", static_cast<double>(census.len1));
    bench.metric("fig3_len2", static_cast<double>(census.len2));
    bench.metric("fig3_len3", static_cast<double>(census.len3));
    bench.metric("fig3_robust_missing", static_cast<double>(robust_missing));
  }
  return bench.finish();
}
