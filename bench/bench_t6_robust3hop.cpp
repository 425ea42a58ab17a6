// EXP-T6 -- Theorem 6: robust 3-hop neighborhood listing in O(1) amortized
// rounds.
//
// Size sweep under random and session churn, reporting amortized
// complexity plus the mechanism's internals (peak queue length, discovery
// paths stored) to show the constant-rounds bound is not bought with
// unbounded local work.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/robust3hop.hpp"

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t6_robust3hop", "EXP-T6",
                     "Theorem 6: robust 3-hop neighborhood listing",
                     "maintained in O(1) amortized rounds with O(log n)-bit "
                     "messages (flat in n)");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512}, {32, 64, 128});
  const std::string rounds = bench.quick() ? "120" : "300";

  const std::vector<bench::Curve> curves{
      {"random churn", "robust3hop",
       [&](std::size_t n) {
         return bench::random_churn_spec(n, 2 * n, rounds, 0x36 + n);
       }},
      {"session churn", "robust3hop",
       [&](std::size_t n) {
         return bench::session_churn_spec(n, rounds, 0x3E55 + n);
       }},
  };
  // The random-churn row also samples the queue peak after every round and
  // counts the discovery paths stored at the end.
  const std::size_t count = sizes.size();
  std::vector<std::size_t> max_queue(count, 0);
  std::vector<std::size_t> paths(count, 0);
  const auto runs = bench::run_sweep(
      sizes, curves,
      [&](std::size_t c, std::size_t i, const detect::Session& session) {
        if (c != 0) return;
        for (const auto& node : session.sim().store().as<core::Robust3HopNode>(
                 "robust3hop path census")) {
          paths[i] += node.paths().size();
        }
      },
      [&](std::size_t c, std::size_t i) {
        return c == 0 ? bench::track_queue_peak(max_queue[i])
                      : bench::RoundHook{};
      });
  bench.report("n", bench::amortized_series(sizes, curves, runs));

  harness::Series peak_q{"peak queue", {}};
  harness::Series stored{"discovery paths stored", {}};
  std::printf("\nmechanism internals (random churn):\n");
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("  n=%-5zu peak queue %-4zu discovery paths stored %-8zu\n",
                sizes[i], max_queue[i], paths[i]);
    const auto x = static_cast<double>(sizes[i]);
    peak_q.points.push_back({x, static_cast<double>(max_queue[i])});
    stored.points.push_back({x, static_cast<double>(paths[i])});
  }
  bench.report_json_only("n", {peak_q, stored});
  return bench.finish();
}
