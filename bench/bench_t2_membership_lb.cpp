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
#include <vector>

#include "baseline/floodkhop.hpp"
#include "baseline/full2hop.hpp"
#include "bench_util.hpp"
#include "core/triangle.hpp"
#include "dynamics/lb_membership.hpp"

namespace dynsub {
namespace {

double adversary_run(const dynamics::PatternGraph& pattern, std::size_t t,
                     const net::NodeFactory& factory) {
  dynamics::MembershipLbParams mp;
  mp.pattern = pattern;
  mp.t = t;
  dynamics::MembershipLbAdversary wl(mp);
  return bench::run_experiment(wl.nodes_required(), factory, wl).amortized;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "t2_membership_lb", "EXP-T2",
                     "Theorem 2: non-clique H membership listing lower bound",
                     "any structure for a non-clique pattern pays "
                     "Omega(n / log n) amortized rounds; cliques (K3 row) "
                     "stay O(1)");
  const auto kTs =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512}, {16, 32, 64});

  const std::size_t count = kTs.size();
  harness::Series p3{"H=P3 (full2hop)", std::vector<harness::SeriesPoint>(count)};
  harness::Series diamond{"H=diamond (flood r=2)",
                          std::vector<harness::SeriesPoint>(count)};
  harness::Series c4{"H=C4 (flood r=2)", std::vector<harness::SeriesPoint>(count)};
  harness::Series k3{"H=K3 (Thm 1, contrast)",
                     std::vector<harness::SeriesPoint>(count)};
  harness::Series bound{"n/log2(n) (theory)",
                        std::vector<harness::SeriesPoint>(count)};

  harness::parallel_for(count, [&](std::size_t i) {
    const std::size_t t = kTs[i];
    const double n = static_cast<double>(t) + 2;
    p3.points[i] = {n, adversary_run(dynamics::pattern_p3(), t,
                                     net::store_of<baseline::FullTwoHopNode>())};
    diamond.points[i] = {n, adversary_run(dynamics::pattern_diamond(), t,
                                          net::store_of<baseline::FloodKHopNode>(2))};
    c4.points[i] = {n, adversary_run(dynamics::pattern_c4(), t,
                                     net::store_of<baseline::FloodKHopNode>(2))};
    k3.points[i] = {n, adversary_run(dynamics::pattern_p3(), t,
                                     net::store_of<core::TriangleNode>())};
    bound.points[i] = {n, n / std::log2(n)};
  });

  bench.report("n", {p3, diamond, c4, k3, bound});
  return bench.finish();
}
