// EXP-T7 -- Theorem 7: robust 2-hop neighborhood listing in O(1) amortized
// rounds (the warm-up structure), plus traffic accounting showing the
// per-link O(log n)-bit discipline.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "net/message.hpp"

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t7_robust2hop", "EXP-T7",
                     "Theorem 7: robust 2-hop neighborhood listing (warm-up)",
                     "maintained exactly (S_v == R^{v,2}) in O(1) amortized "
                     "rounds");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512, 1024}, {32, 64, 128});
  const std::string rounds = bench.quick() ? "120" : "300";

  const std::vector<bench::Curve> curves{
      {"random churn", "robust2hop",
       [&](std::size_t n) {
         return bench::random_churn_spec(n, 3 * n, rounds, 0x27 + n);
       }},
      {"session churn", "robust2hop",
       [&](std::size_t n) {
         return bench::session_churn_spec(n, rounds, 0x2E55 + n);
       }},
  };
  const auto runs = bench::run_sweep(sizes, curves);
  bench.report("n", bench::amortized_series(sizes, curves, runs));

  harness::Series bits{"mean payload bits", {}};
  harness::Series budget{"bandwidth budget bits", {}};
  std::printf("\nbandwidth discipline (random churn):\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const harness::RunSummary& s = runs[0][i];
    const double mean_bits = s.messages ? static_cast<double>(s.payload_bits) /
                                              static_cast<double>(s.messages)
                                        : 0.0;
    std::printf("  n=%-5zu mean payload %.1f bits vs budget %zu bits\n",
                sizes[i], mean_bits, net::bandwidth_bits(sizes[i]));
    const auto x = static_cast<double>(sizes[i]);
    bits.points.push_back({x, mean_bits});
    budget.points.push_back(
        {x, static_cast<double>(net::bandwidth_bits(sizes[i]))});
  }
  bench.report_json_only("n", {bits, budget});
  return bench.finish();
}
