// EXP-T1 -- Theorem 1: triangle membership listing in O(1) amortized rounds.
//
// Sweeps the network size under three workloads (uniform random churn, the
// heavy-tailed P2P session churn of the paper's motivation, and repeated
// flicker attacks) and reports amortized inconsistent-rounds per topology
// change.  The paper's claim is that the curves are flat in n; the log-log
// slope printed at the end quantifies that.
#include <string>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t1_triangle", "EXP-T1",
                     "Theorem 1: triangle membership listing",
                     "handles insertions and deletions in O(1) amortized "
                     "rounds (flat in n, every workload)");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512, 1024}, {32, 64, 128});
  const std::string rounds = bench.quick() ? "150" : "400";
  const std::string repeats = bench.quick() ? "6" : "12";
  const std::vector<bench::Curve> curves{
      {"random churn", "triangle",
       [&](std::size_t n) {
         return bench::random_churn_spec(n, 3 * n, rounds, 0x71A5 + n);
       }},
      {"session churn", "triangle",
       [&](std::size_t n) {
         return bench::session_churn_spec(n, rounds, 0x5E55 + n);
       }},
      {"flicker attack", "triangle",
       [&](std::size_t n) {
         return "flicker(n=" + std::to_string(n) + ", repeats=" + repeats +
                ")";
       }},
  };
  const auto runs = bench::run_sweep(sizes, curves);
  bench.report("n", bench::amortized_series(sizes, curves, runs));
  return bench.finish();
}
