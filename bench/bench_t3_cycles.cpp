// EXP-T3 -- Theorems 3/5: 4-cycle and 5-cycle listing in O(1) amortized
// rounds.
//
// Plants cycles with randomized edge orders (including the adversarial
// order the paper uses to show 2-hop knowledge is insufficient), churns
// them with background noise, and reports amortized complexity plus the
// listing coverage observed at stabilization points (every planted cycle
// must be reported by at least one of its nodes).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "oracle/subgraphs.hpp"

namespace dynsub {
namespace {

struct Coverage {
  std::size_t present = 0;
  std::size_t reported = 0;
};

/// How many of `cycles` at least one of their nodes reports, asked through
/// the uniform query surface.
template <typename Cycles>
Coverage coverage(const detect::Session& session, const Cycles& cycles) {
  Coverage cov;
  for (const auto& c : cycles) {
    ++cov.present;
    const detect::CycleQuery q{{c.v.begin(), c.v.end()}};
    for (const NodeId x : c.v) {
      if (session.query(x, q) == net::Answer::kTrue) {
        ++cov.reported;
        break;
      }
    }
  }
  return cov;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t3_cycles", "EXP-T3",
                     "Theorems 3/5: 4-cycle and 5-cycle listing",
                     "both are O(1) amortized (flat in n), with every cycle "
                     "of G_{i-1} reported by at least one of its nodes");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512}, {32, 64});
  const std::string rounds = bench.quick() ? "120" : "300";

  // Constant plant count: constant change rate across n.
  auto planted = [&](std::size_t k) {
    return [&rounds, k](std::size_t n) {
      return "planted-cycle(n=" + std::to_string(n) + ", k=" +
             std::to_string(k) + ", plants=2, noise=1, period=" +
             std::to_string(12 + k) + ", rounds=" + rounds +
             ", seed=" + std::to_string(0x4C + n * 13 + k) + ")";
    };
  };
  const std::vector<bench::Curve> curves{
      {"4-cycle listing", "robust3hop", planted(4)},
      {"5-cycle listing", "robust3hop", planted(5)},
  };
  // Coverage at the final (stable) round, [curve][point], measured against
  // G_{i-1} as the guarantee specifies.
  std::vector<std::vector<Coverage>> cov(curves.size(),
                                         std::vector<Coverage>(sizes.size()));
  const auto runs = bench::run_sweep(
      sizes, curves,
      [&](std::size_t c, std::size_t i, const detect::Session& session) {
        const auto prev = session.sim().prev_graph();
        cov[c][i] = c == 0 ? coverage(session, oracle::all_4_cycles(prev))
                           : coverage(session, oracle::all_5_cycles(prev));
      });
  bench.report("n", bench::amortized_series(sizes, curves, runs));

  harness::Series cov4{"4-cycle coverage", {}};
  harness::Series cov5{"5-cycle coverage", {}};
  std::printf("\nlisting coverage at the final stable round:\n");
  auto ratio = [](const Coverage& c) {
    return c.present == 0 ? 1.0
                          : static_cast<double>(c.reported) /
                                static_cast<double>(c.present);
  };
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("  n=%-5zu 4-cycles %zu/%zu reported, 5-cycles %zu/%zu\n",
                sizes[i], cov[0][i].reported, cov[0][i].present,
                cov[1][i].reported, cov[1][i].present);
    const auto x = static_cast<double>(sizes[i]);
    cov4.points.push_back({x, ratio(cov[0][i])});
    cov5.points.push_back({x, ratio(cov[1][i])});
  }
  bench.report_json_only("n", {cov4, cov5});
  return bench.finish();
}
