// EXP-T7 -- Theorem 7: robust 2-hop neighborhood listing in O(1) amortized
// rounds (the warm-up structure), plus traffic accounting showing the
// per-link O(log n)-bit discipline.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/robust2hop.hpp"
#include "dynamics/random_churn.hpp"
#include "dynamics/sessions.hpp"
#include "net/message.hpp"

namespace dynsub {
namespace {

struct Cell {
  double amortized = 0;
  double bits_per_message = 0;
};

Cell run_random(std::size_t n, std::size_t rounds) {
  dynamics::RandomChurnParams cp;
  cp.n = n;
  cp.target_edges = 3 * n;
  cp.max_changes = 4;  // constant change rate: the flat-in-n demonstration
  cp.rounds = rounds;
  cp.seed = 0x27 + n;
  dynamics::RandomChurnWorkload wl(cp);
  const auto s = bench::run_experiment(
      n, net::store_of<core::Robust2HopNode>(), wl);
  Cell cell;
  cell.amortized = s.amortized;
  cell.bits_per_message =
      s.messages ? static_cast<double>(s.payload_bits) /
                       static_cast<double>(s.messages)
                 : 0.0;
  return cell;
}

double run_session(std::size_t n, std::size_t rounds) {
  dynamics::SessionChurnParams sp;
  sp.n = n;
  // Scale session/offline lengths with n so the expected number of
  // topology changes per round stays constant across sizes.
  sp.session_min = 4.0 * static_cast<double>(n) / 32.0;
  sp.mean_offline = 6.0 * static_cast<double>(n) / 32.0;
  sp.rounds = rounds;
  sp.seed = 0x2E55 + n;
  dynamics::SessionChurnWorkload wl(sp);
  return bench::run_experiment(n, net::store_of<core::Robust2HopNode>(),
                               wl)
      .amortized;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t7_robust2hop", "EXP-T7",
                     "Theorem 7: robust 2-hop neighborhood listing (warm-up)",
                     "maintained exactly (S_v == R^{v,2}) in O(1) amortized "
                     "rounds");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512, 1024}, {32, 64, 128});
  const std::size_t rounds = bench.quick() ? 120 : 300;

  const std::size_t count = sizes.size();
  harness::Series random_s{"random churn", std::vector<harness::SeriesPoint>(count)};
  harness::Series session_s{"session churn", std::vector<harness::SeriesPoint>(count)};
  std::vector<Cell> cells(count);
  harness::parallel_for(count, [&](std::size_t i) {
    cells[i] = run_random(sizes[i], rounds);
    random_s.points[i] = {static_cast<double>(sizes[i]), cells[i].amortized};
    session_s.points[i] = {static_cast<double>(sizes[i]),
                           run_session(sizes[i], rounds)};
  });
  bench.report("n", {random_s, session_s});

  harness::Series bits{"mean payload bits",
                       std::vector<harness::SeriesPoint>(count)};
  harness::Series budget{"bandwidth budget bits",
                         std::vector<harness::SeriesPoint>(count)};
  std::printf("\nbandwidth discipline (random churn):\n");
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("  n=%-5zu mean payload %.1f bits vs budget %zu bits\n",
                sizes[i], cells[i].bits_per_message,
                net::bandwidth_bits(sizes[i]));
    bits.points[i] = {static_cast<double>(sizes[i]),
                      cells[i].bits_per_message};
    budget.points[i] = {static_cast<double>(sizes[i]),
                        static_cast<double>(net::bandwidth_bits(sizes[i]))};
  }
  bench.report_json_only("n", {bits, budget});
  return bench.finish();
}
