// EXP-C1 -- Corollary 1: k-clique membership listing in O(1) amortized
// rounds for every k >= 3.
//
// Plants k-cliques (one edge per round, so all insertion orders occur),
// churns them, and reports amortized complexity per k across sizes -- plus
// the per-node listing volume, demonstrating that the same triangle
// structure serves every clique size without extra communication.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "c1_clique", "EXP-C1",
                     "Corollary 1: k-clique membership listing (k = 3..6)",
                     "one triangle-membership structure answers every clique "
                     "size in O(1) amortized rounds (flat in n for every k)");
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512}, {32, 64});
  constexpr std::size_t kCliqueSizes[] = {3, 4, 5, 6};
  const std::string rounds = bench.quick() ? "120" : "300";
  const std::uint64_t base_seed = bench.seed_or(0xC11);

  // One curve per clique size: the planted-clique scenario and the triangle
  // structure with the matching k (Cor 1).  Constant plant count: constant
  // change rate across n.
  std::vector<bench::Curve> curves;
  for (const std::size_t k : kCliqueSizes) {
    curves.push_back(
        {"k=" + std::to_string(k), "triangle(k=" + std::to_string(k) + ")",
         [&rounds, base_seed, k](std::size_t n) {
           return "planted-clique(n=" + std::to_string(n) + ", k=" +
                  std::to_string(k) + ", plants=2, noise=2, period=" +
                  std::to_string(8 + k * (k - 1) / 2) + ", rounds=" + rounds +
                  ", seed=" + std::to_string(base_seed + n * 7 + k) + ")";
         }});
  }
  // The clique memberships each node lists at the end, through the uniform
  // list() surface.  The drain leaves every node consistent; list()
  // refuses (nullopt) otherwise rather than listing from an inconsistent
  // snapshot.
  std::vector<std::vector<std::size_t>> listed(
      curves.size(), std::vector<std::size_t>(sizes.size(), 0));
  const auto runs = bench::run_sweep(
      sizes, curves,
      [&](std::size_t c, std::size_t i, const detect::Session& session) {
        for (NodeId v = 0; v < session.nodes(); ++v) {
          if (const auto tuples = session.list(v, detect::QueryKind::kClique)) {
            listed[c][i] += tuples->size();
          }
        }
      });
  const auto series = bench::amortized_series(sizes, curves, runs);
  std::vector<harness::Series> volume;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    harness::Series vol{curves[c].label + " listed", {}};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      vol.points.push_back({static_cast<double>(sizes[i]),
                            static_cast<double>(listed[c][i])});
    }
    volume.push_back(std::move(vol));
  }
  bench.report("n", series);
  bench.report_json_only("n", volume);

  std::printf("\nlisting volume (clique memberships reported, final round):\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("  n=%-5zu", sizes[i]);
    for (std::size_t c = 0; c < curves.size(); ++c) {
      std::printf("  k=%zu:%-6zu", kCliqueSizes[c], listed[c][i]);
    }
    std::printf("\n");
  }
  return bench.finish();
}
