// EXP-T1 -- Theorem 1: triangle membership listing in O(1) amortized rounds.
//
// Sweeps the network size under three workloads (uniform random churn, the
// heavy-tailed P2P session churn of the paper's motivation, and repeated
// flicker attacks) and reports amortized inconsistent-rounds per topology
// change.  The paper's claim is that the curves are flat in n; the log-log
// slope printed at the end quantifies that.
#include <vector>

#include "bench_util.hpp"
#include "core/triangle.hpp"
#include "dynamics/flicker.hpp"
#include "dynamics/random_churn.hpp"
#include "dynamics/sessions.hpp"

namespace dynsub {
namespace {

double random_churn_run(std::size_t n, std::size_t rounds) {
  dynamics::RandomChurnParams cp;
  cp.n = n;
  cp.target_edges = 3 * n;
  cp.max_changes = 4;  // constant change rate: the flat-in-n demonstration
  cp.rounds = rounds;
  cp.seed = 0x71A5 + n;
  dynamics::RandomChurnWorkload wl(cp);
  return bench::run_experiment(n, net::store_of<core::TriangleNode>(), wl)
      .amortized;
}

double session_churn_run(std::size_t n, std::size_t rounds) {
  dynamics::SessionChurnParams sp;
  sp.n = n;
  // Scale session/offline lengths with n so the expected number of
  // topology changes per round stays constant across sizes.
  sp.session_min = 4.0 * static_cast<double>(n) / 32.0;
  sp.mean_offline = 6.0 * static_cast<double>(n) / 32.0;
  sp.rounds = rounds;
  sp.seed = 0x5E55 + n;
  dynamics::SessionChurnWorkload wl(sp);
  return bench::run_experiment(n, net::store_of<core::TriangleNode>(), wl)
      .amortized;
}

double flicker_run(std::size_t n, std::size_t repeats) {
  const auto scenario = dynamics::make_repeated_flicker_scenario(n, repeats);
  net::ScriptedWorkload wl(scenario.script);
  return bench::run_experiment(n, net::store_of<core::TriangleNode>(), wl)
      .amortized;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t1_triangle", "EXP-T1",
                     "Theorem 1: triangle membership listing",
                     "handles insertions and deletions in O(1) amortized "
                     "rounds (flat in n, every workload)");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512, 1024}, {32, 64, 128});
  const std::size_t rounds = bench.quick() ? 150 : 400;
  const std::size_t repeats = bench.quick() ? 6 : 12;

  const std::size_t count = sizes.size();
  harness::Series random_s{"random churn", std::vector<harness::SeriesPoint>(count)};
  harness::Series session_s{"session churn", std::vector<harness::SeriesPoint>(count)};
  harness::Series flicker_s{"flicker attack", std::vector<harness::SeriesPoint>(count)};
  harness::parallel_for(count, [&](std::size_t i) {
    const std::size_t n = sizes[i];
    random_s.points[i] = {static_cast<double>(n), random_churn_run(n, rounds)};
    session_s.points[i] = {static_cast<double>(n), session_churn_run(n, rounds)};
    flicker_s.points[i] = {static_cast<double>(n), flicker_run(n, repeats)};
  });
  bench.report("n", {random_s, session_s, flicker_s});
  return bench.finish();
}
