// EXP-T2 -- Theorem 2: membership listing of any non-clique H needs
// Omega(n / log n) amortized rounds.
//
// Runs the paper's adversary (connect a fresh node per N_a, wait for
// stabilization, reconnect per N_b) for three non-clique patterns against
// the natural algorithms (the Lemma 1 full-2-hop structure for P3 -- whose
// membership IS 2-hop listing -- and radius-2 flooding for the diameter-2
// patterns), and contrasts with the Theorem 1 clique structure on the same
// event stream, which stays flat.  The information-theoretic n / log n
// curve is printed alongside for shape comparison.
#include <cmath>
#include <string>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t2_membership_lb", "EXP-T2",
                     "Theorem 2: non-clique H membership listing lower bound",
                     "any structure for a non-clique pattern pays "
                     "Omega(n / log n) amortized rounds; cliques (K3 row) "
                     "stay O(1)");
  const auto kTs =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512}, {16, 32, 64});

  auto adversary = [](const char* pattern) {
    return [pattern](std::size_t t) {
      return "membership-lb(pattern=" + std::string(pattern) +
             ", t=" + std::to_string(t) + ")";
    };
  };
  const std::vector<bench::Curve> curves{
      {"H=P3 (full2hop)", "full2hop", adversary("p3")},
      {"H=diamond (flood r=2)", "flood2", adversary("diamond")},
      {"H=C4 (flood r=2)", "flood2", adversary("c4")},
      {"H=K3 (Thm 1, contrast)", "triangle", adversary("p3")},
  };
  const auto runs = bench::run_sweep(kTs, curves);
  auto series = bench::amortized_series(kTs, curves, runs, [](std::size_t t) {
    return static_cast<double>(t) + 2;
  });
  series.push_back(bench::theory_series(
      "n/log2(n) (theory)", series[0],
      [](double n) { return n / std::log2(n); }));
  bench.report("n", series);
  return bench.finish();
}
