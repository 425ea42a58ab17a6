// EXP-T3 -- Theorems 3/5: 4-cycle and 5-cycle listing in O(1) amortized
// rounds.
//
// Plants cycles with randomized edge orders (including the adversarial
// order the paper uses to show 2-hop knowledge is insufficient), churns
// them with background noise, and reports amortized complexity plus the
// listing coverage observed at stabilization points (every planted cycle
// must be reported by at least one of its nodes).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/robust3hop.hpp"
#include "dynamics/planted.hpp"
#include "oracle/subgraphs.hpp"

namespace dynsub {
namespace {

struct Cell {
  double amortized = 0;
  std::size_t cycles_present = 0;
  std::size_t cycles_reported = 0;
};

Cell run(std::size_t n, std::size_t k, std::size_t rounds) {
  dynamics::PlantedParams pp;
  pp.n = n;
  pp.k = k;
  pp.plants = 2;  // constant plant count: constant change rate across n
  pp.noise_per_round = 1;
  pp.rebuild_period = 12 + k;
  pp.rounds = rounds;
  pp.seed = 0x4C + n * 13 + k;
  dynamics::PlantedCycleWorkload wl(pp);
  net::Simulator sim(n, net::store_of<core::Robust3HopNode>(),
                     {.collect_phase_timings = true});
  bench::run_timed(sim, wl, 1000000);
  Cell cell;
  cell.amortized = sim.metrics().amortized();
  // Coverage at the final (stable) round, measured against G_{i-1} as the
  // guarantee specifies.
  auto check = [&](auto cycles) {
    for (const auto& c : cycles) {
      ++cell.cycles_present;
      for (NodeId x : c.v) {
        const auto& node =
            dynamic_cast<const core::Robust3HopNode&>(sim.node(x));
        if (node.query_cycle(std::span<const NodeId>(c.v.data(),
                                                     c.v.size())) ==
            net::Answer::kTrue) {
          ++cell.cycles_reported;
          break;
        }
      }
    }
  };
  if (k == 4) check(oracle::all_4_cycles(sim.prev_graph()));
  if (k == 5) check(oracle::all_5_cycles(sim.prev_graph()));
  return cell;
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
  const std::size_t rounds = bench.quick() ? 120 : 300;

  const std::size_t count = sizes.size();
  harness::Series c4{"4-cycle listing", std::vector<harness::SeriesPoint>(count)};
  harness::Series c5{"5-cycle listing", std::vector<harness::SeriesPoint>(count)};
  std::vector<Cell> cell4(count), cell5(count);
  harness::parallel_for(count * 2, [&](std::size_t idx) {
    const std::size_t i = idx / 2;
    if (idx % 2 == 0) {
      cell4[i] = run(sizes[i], 4, rounds);
    } else {
      cell5[i] = run(sizes[i], 5, rounds);
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    c4.points[i] = {static_cast<double>(sizes[i]), cell4[i].amortized};
    c5.points[i] = {static_cast<double>(sizes[i]), cell5[i].amortized};
  }
  bench.report("n", {c4, c5});

  harness::Series cov4{"4-cycle coverage", std::vector<harness::SeriesPoint>(count)};
  harness::Series cov5{"5-cycle coverage", std::vector<harness::SeriesPoint>(count)};
  std::printf("\nlisting coverage at the final stable round:\n");
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("  n=%-5zu 4-cycles %zu/%zu reported, 5-cycles %zu/%zu\n",
                sizes[i], cell4[i].cycles_reported, cell4[i].cycles_present,
                cell5[i].cycles_reported, cell5[i].cycles_present);
    auto ratio = [](std::size_t reported, std::size_t present) {
      return present == 0 ? 1.0
                          : static_cast<double>(reported) /
                                static_cast<double>(present);
    };
    cov4.points[i] = {static_cast<double>(sizes[i]),
                      ratio(cell4[i].cycles_reported, cell4[i].cycles_present)};
    cov5.points[i] = {static_cast<double>(sizes[i]),
                      ratio(cell5[i].cycles_reported, cell5[i].cycles_present)};
  }
  bench.report_json_only("n", {cov4, cov5});
  return bench.finish();
}
