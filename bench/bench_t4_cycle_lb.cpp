// EXP-T4 -- Theorem 4 / Figure 4: k-cycle listing for k >= 6 needs
// Omega(sqrt(n) / log n) amortized rounds.
//
// Builds the paper's two-phase gadget (columns of u1/u2 hubs over v-rows,
// bridged pairwise with stabilization waits) and measures the radius-3
// flooding baseline, whose knowledge dumps across the two bridge edges are
// exactly the Omega(D) bits the proof charges.  The Theorem 5 structure on
// the same event stream stays O(1) -- the crossover that places 6-cycles
// on the far side of the paper's complexity landscape.  The sqrt(n)/log n
// curve is printed for shape comparison.
#include <cmath>
#include <string>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t4_cycle_lb", "EXP-T4",
                     "Theorem 4 / Figure 4: 6-cycle listing lower bound",
                     "k-cycle listing for k >= 6 pays Omega(sqrt(n) / log n) "
                     "amortized; 4-/5-cycle machinery (Thm 5) on the same "
                     "stream stays O(1)");
  const auto kDs = bench.sweep<std::size_t>({4, 6, 9, 13, 19, 28}, {4, 6, 9});

  auto gadget = [](std::size_t d) {
    return "cycle-lb(d=" + std::to_string(d) +
           ", seed=" + std::to_string(0xF19 + d) + ")";
  };
  const std::vector<bench::Curve> curves{
      {"6-cycle lister (flood r=3)", "flood3", gadget},
      {"robust 3-hop (Thm 5, contrast)", "robust3hop", gadget},
  };
  const auto runs = bench::run_sweep(kDs, curves);
  auto series = bench::amortized_series(kDs, curves, runs, [](std::size_t d) {
    return static_cast<double>((d + 2) * (d + 2));
  });
  series.push_back(bench::theory_series(
      "sqrt(n)/log2(n) (theory)", series[0],
      [](double n) { return std::sqrt(n) / std::log2(n); }));
  bench.report("n", series);
  return bench.finish();
}
