// EXP-ABL1 -- the Section 1.3 flicker counterexample as an ablation.
//
// Runs the repeated flicker schedule against the timestamp-free naive
// 2-hop algorithm and the Theorem 7 robust structure, counting rounds in
// which a node answers a query *incorrectly while flying its consistent
// flag* -- the failure mode the imaginary-timestamp machinery exists to
// prevent.  Also compares amortized complexity to show robustness is not
// bought with extra rounds.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "dynamics/flicker.hpp"
#include "oracle/robust_sets.hpp"

namespace dynsub {
namespace {

struct Outcome {
  std::size_t wrong_answer_rounds = 0;
  double amortized = 0;
};

/// The repeated flicker schedule on 8 nodes against `detector`, asking the
/// victim about the ghost edge after every round.  The schedule is injected
/// rather than named by spec because the check needs its victim and ghost.
Outcome run(const std::string& detector, std::size_t repeats) {
  const auto scenario = dynamics::make_repeated_flicker_scenario(8, repeats);
  Outcome out;
  const auto run = bench::run_session(
      {.detector = detector, .scenario = {}},
      std::make_unique<net::ScriptedWorkload>(scenario.script), 8,
      [&](const detect::Session& session) {
        const auto answer =
            session.query(scenario.victim, detect::EdgeQuery{scenario.ghost});
        if (answer == net::Answer::kInconsistent) return;
        const bool truth =
            oracle::robust_2hop(session.sim().graph(), scenario.victim)
                .contains(scenario.ghost);
        if ((answer == net::Answer::kTrue) != truth) ++out.wrong_answer_rounds;
      });
  out.amortized = run.summary.amortized;
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
    const auto naive = run("naive2hop", repeats);
    const auto robust = run("robust2hop", repeats);
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
