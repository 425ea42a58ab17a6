// EXP-COR2 -- Corollary 2 + Lemma 1: full 2-hop neighborhood listing costs
// Theta(n / log n) amortized rounds.
//
// The matching pair around the paper's robust-subset insight: maintaining
// the *entire* 2-hop neighborhood (Lemma 1's chunked-snapshot algorithm)
// under insert-heavy churn costs ~n/log n per change, while the Theorem 7
// robust subset costs O(1) on the identical event stream.  Both measured
// curves are printed with the theoretical n / log n shape.
#include <cmath>
#include <string>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "b_full2hop", "EXP-COR2",
                     "Corollary 2 / Lemma 1: 2-hop neighborhood listing",
                     "full 2-hop listing is Theta(n / log n) amortized "
                     "(Lemma 1 upper, Corollary 2 lower); the robust subset "
                     "of Theorem 7 is O(1)");
  const auto sizes =
      bench.sweep<std::size_t>({64, 128, 256, 512, 1024}, {64, 128});
  const std::string toggles = bench.quick() ? "20" : "60";

  // Serialized single-edge toggles with stabilization waits: the regime the
  // paper's amortization charges (overlapping windows would hide the
  // per-change snapshot cost from the global inconsistent-rounds metric).
  auto churn = [&](std::size_t n) {
    return "serialized-churn(n=" + std::to_string(n) +
           ", target=" + std::to_string(2 * n) + ", toggles=" + toggles +
           ", seed=" + std::to_string(0xB0B + n) + ")";
  };
  const std::vector<bench::Curve> curves{
      {"full 2-hop (Lemma 1)", "full2hop", churn},
      {"robust 2-hop (Thm 7)", "robust2hop", churn},
  };
  const auto runs = bench::run_sweep(sizes, curves);
  auto series = bench::amortized_series(sizes, curves, runs);
  series.push_back(bench::theory_series(
      "n/log2(n) (theory)", series[0],
      [](double n) { return n / std::log2(n); }));
  bench.report("n", series);
  return bench.finish();
}
