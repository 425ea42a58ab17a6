// EXP-ABL1 -- the Section 1.3 flicker counterexample as an ablation.
//
// Runs the repeated flicker schedule against the timestamp-free naive
// 2-hop algorithm and the Theorem 7 robust structure, counting rounds in
// which a node answers a query *incorrectly while flying its consistent
// flag* -- the failure mode the imaginary-timestamp machinery exists to
// prevent.  Also compares amortized complexity to show robustness is not
// bought with extra rounds.
#include <chrono>
#include <cstdio>

#include "baseline/naive2hop.hpp"
#include "bench_util.hpp"
#include "core/robust2hop.hpp"
#include "dynamics/flicker.hpp"
#include "oracle/robust_sets.hpp"

namespace dynsub {
namespace {

struct Outcome {
  std::size_t wrong_answer_rounds = 0;
  std::size_t rounds = 0;
  double amortized = 0;
};

template <typename NodeT>
Outcome run(std::size_t repeats) {
  const auto scenario = dynamics::make_repeated_flicker_scenario(8, repeats);
  net::Simulator sim(8, net::store_of<NodeT>(),
                     {.collect_phase_timings = true});
  net::ScriptedWorkload wl(scenario.script);
  Outcome out;
  const auto start = std::chrono::steady_clock::now();
  while (!(wl.finished() && sim.all_consistent()) && out.rounds < 1000000) {
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    auto ev = wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    sim.step(ev);
    ++out.rounds;
    const auto& victim =
        dynamic_cast<const NodeT&>(sim.node(scenario.victim));
    const auto answer = victim.query_edge(scenario.ghost);
    if (answer == net::Answer::kInconsistent) continue;
    const bool truth =
        oracle::robust_2hop(sim.graph(), scenario.victim)
            .contains(scenario.ghost);
    if ((answer == net::Answer::kTrue) != truth) ++out.wrong_answer_rounds;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  bench::perf_accumulator().add(harness::summarize_timed(sim, wall));
  out.amortized = sim.metrics().amortized();
  return out;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "abl_flicker", "EXP-ABL1",
                     "Section 1.3: the flickering-deletion counterexample",
                     "without insertion-time bookkeeping the naive algorithm "
                     "keeps answering 'true' for the deleted far edge while "
                     "claiming consistency; the Theorem 7 rules purge it");
  const auto sweep = bench.sweep<std::size_t>({1, 4, 16, 64}, {1, 4, 8});

  const std::size_t count = sweep.size();
  harness::Series naive_wrong{"naive wrong rounds",
                              std::vector<harness::SeriesPoint>(count)};
  harness::Series robust_wrong{"robust wrong rounds",
                               std::vector<harness::SeriesPoint>(count)};
  harness::Series naive_amort{"naive amortized",
                              std::vector<harness::SeriesPoint>(count)};
  harness::Series robust_amort{"robust amortized",
                               std::vector<harness::SeriesPoint>(count)};
  std::printf("\n  %-10s %-28s %-28s\n", "repeats", "naive (Sec 1.3 strawman)",
              "robust (Theorem 7)");
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t repeats = sweep[i];
    const auto naive = run<baseline::NaiveTwoHopNode>(repeats);
    const auto robust = run<core::Robust2HopNode>(repeats);
    std::printf(
        "  %-10zu wrong rounds %-6zu amort %-5.2f wrong rounds %-6zu "
        "amort %-5.2f\n",
        repeats, naive.wrong_answer_rounds, naive.amortized,
        robust.wrong_answer_rounds, robust.amortized);
    const auto x = static_cast<double>(repeats);
    naive_wrong.points[i] = {x,
                             static_cast<double>(naive.wrong_answer_rounds)};
    robust_wrong.points[i] = {x,
                              static_cast<double>(robust.wrong_answer_rounds)};
    naive_amort.points[i] = {x, naive.amortized};
    robust_amort.points[i] = {x, robust.amortized};
  }
  std::printf(
      "\n  (wrong rounds = rounds where the victim's answer about the ghost\n"
      "   edge contradicts ground truth while its consistency flag is up;\n"
      "   the robust column must be 0.)\n");
  bench.report_json_only(
      "repeats", {naive_wrong, robust_wrong, naive_amort, robust_amort});
  return bench.finish();
}
