// EXP-COR2 -- Corollary 2 + Lemma 1: full 2-hop neighborhood listing costs
// Theta(n / log n) amortized rounds.
//
// The matching pair around the paper's robust-subset insight: maintaining
// the *entire* 2-hop neighborhood (Lemma 1's chunked-snapshot algorithm)
// under insert-heavy churn costs ~n/log n per change, while the Theorem 7
// robust subset costs O(1) on the identical event stream.  Both measured
// curves are printed with the theoretical n / log n shape.
#include <cmath>
#include <vector>

#include "baseline/full2hop.hpp"
#include "bench_util.hpp"
#include "core/robust2hop.hpp"
#include "dynamics/random_churn.hpp"

namespace dynsub {
namespace {

// Serialized single-edge toggles with stabilization waits: the regime the
// paper's amortization charges (overlapping windows would hide the
// per-change snapshot cost from the global inconsistent-rounds metric).
dynamics::SerializedChurnWorkload make_churn(std::size_t n,
                                             std::size_t toggles) {
  return dynamics::SerializedChurnWorkload(n, 2 * n, toggles,
                                           /*seed=*/0xB0B + n);
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "b_full2hop", "EXP-COR2",
                     "Corollary 2 / Lemma 1: 2-hop neighborhood listing",
                     "full 2-hop listing is Theta(n / log n) amortized "
                     "(Lemma 1 upper, Corollary 2 lower); the robust subset "
                     "of Theorem 7 is O(1)");
  const auto sizes =
      bench.sweep<std::size_t>({64, 128, 256, 512, 1024}, {64, 128});
  const std::size_t toggles = bench.quick() ? 20 : 60;

  const std::size_t count = sizes.size();
  harness::Series full{"full 2-hop (Lemma 1)",
                       std::vector<harness::SeriesPoint>(count)};
  harness::Series robust{"robust 2-hop (Thm 7)",
                         std::vector<harness::SeriesPoint>(count)};
  harness::Series bound{"n/log2(n) (theory)",
                        std::vector<harness::SeriesPoint>(count)};
  harness::parallel_for(count, [&](std::size_t i) {
    const std::size_t n = sizes[i];
    {
      auto wl = make_churn(n, toggles);
      full.points[i] = {static_cast<double>(n),
                        bench::run_experiment(
                            n, net::store_of<baseline::FullTwoHopNode>(), wl)
                            .amortized};
    }
    {
      auto wl = make_churn(n, toggles);
      robust.points[i] = {static_cast<double>(n),
                          bench::run_experiment(
                              n, net::store_of<core::Robust2HopNode>(), wl)
                              .amortized};
    }
    bound.points[i] = {static_cast<double>(n),
                       static_cast<double>(n) / std::log2(n)};
  });
  bench.report("n", {full, robust, bound});
  return bench.finish();
}
