// EXP-T6 -- Theorem 6: robust 3-hop neighborhood listing in O(1) amortized
// rounds.
//
// Size sweep under random and session churn, reporting amortized
// complexity plus the mechanism's internals (peak queue length, discovery
// paths stored) to show the constant-rounds bound is not bought with
// unbounded local work.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/robust3hop.hpp"
#include "dynamics/random_churn.hpp"
#include "dynamics/sessions.hpp"

namespace dynsub {
namespace {

struct Cell {
  double amortized = 0;
  std::size_t max_queue = 0;
  std::size_t paths = 0;
};

Cell run_random(std::size_t n, std::size_t rounds) {
  dynamics::RandomChurnParams cp;
  cp.n = n;
  cp.target_edges = 2 * n;
  cp.max_changes = 4;  // constant change rate: the flat-in-n demonstration
  cp.rounds = rounds;
  cp.seed = 0x36 + n;
  dynamics::RandomChurnWorkload wl(cp);
  net::Simulator sim(n, bench::factory_of<core::Robust3HopNode>());
  Cell cell;
  std::size_t steps = 0;
  while (steps < 1000000 && !(wl.finished() && sim.all_consistent())) {
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    auto ev = wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    sim.step(ev);
    ++steps;
    for (NodeId v = 0; v < n; ++v) {
      cell.max_queue = std::max(cell.max_queue, sim.node(v).queue_length());
    }
  }
  cell.amortized = sim.metrics().amortized();
  for (NodeId v = 0; v < n; ++v) {
    const auto& node = dynamic_cast<const core::Robust3HopNode&>(sim.node(v));
    cell.paths += node.paths().size();
  }
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
  sp.seed = 0x3E55 + n;
  dynamics::SessionChurnWorkload wl(sp);
  return bench::run_experiment(n, bench::factory_of<core::Robust3HopNode>(),
                               wl)
      .amortized;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t6_robust3hop", "EXP-T6",
                     "Theorem 6: robust 3-hop neighborhood listing",
                     "maintained in O(1) amortized rounds with O(log n)-bit "
                     "messages (flat in n)");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512}, {32, 64, 128});
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

  harness::Series peak_q{"peak queue", std::vector<harness::SeriesPoint>(count)};
  harness::Series paths{"discovery paths stored",
                        std::vector<harness::SeriesPoint>(count)};
  std::printf("\nmechanism internals (random churn):\n");
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("  n=%-5zu peak queue %-4zu discovery paths stored %-8zu\n",
                sizes[i], cells[i].max_queue, cells[i].paths);
    peak_q.points[i] = {static_cast<double>(sizes[i]),
                        static_cast<double>(cells[i].max_queue)};
    paths.points[i] = {static_cast<double>(sizes[i]),
                       static_cast<double>(cells[i].paths)};
  }
  bench.report_json_only("n", {peak_q, paths});
  return bench.finish();
}
