// EXP-ABL2 -- ablation of the deletion-relay forwarding rule (Thm 6).
//
// The paper re-forwards deletion relays while l <= 1; with the relay-chain
// scoping this implementation adds (the via hop on the wire), an l = 2
// relay can never match a stored path, so the default forwards only on
// l = 0 receipt.  The gadget -- a star of common neighbors around a
// churned far edge, the exact fan-in shape -- shows the paper-literal rule
// costing Theta(deg) distinct (e, 2, via) queue items per deletion at the
// hub, while the scoped rule stays flat.  (Queue duplicate suppression,
// deviation D4, is on in both columns; it is orthogonal.)
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/robust3hop.hpp"
#include "net/workload.hpp"

namespace dynsub {
namespace {

/// Star gadget: hub h adjacent to `deg` spokes, each spoke adjacent to a
/// far pair {a,b} whose edge flickers repeatedly.  Every flicker's
/// deletion reaches the hub once per spoke.
std::vector<std::vector<EdgeEvent>> star_script(std::size_t deg,
                                                std::size_t flickers) {
  const NodeId hub = 0, a = 1, b = 2;
  std::vector<std::vector<EdgeEvent>> script;
  std::vector<EdgeEvent> setup;
  for (std::size_t s = 0; s < deg; ++s) {
    const NodeId spoke = static_cast<NodeId>(3 + s);
    setup.push_back(EdgeEvent::insert(hub, spoke));
    setup.push_back(EdgeEvent::insert(spoke, a));
  }
  script.push_back(setup);
  for (std::size_t q = 0; q < 2 * deg; ++q) script.emplace_back();
  for (std::size_t f = 0; f < flickers; ++f) {
    script.push_back({EdgeEvent::insert(a, b)});
    for (int q = 0; q < 6; ++q) script.emplace_back();
    script.push_back({EdgeEvent::remove(a, b)});
    for (int q = 0; q < 6; ++q) script.emplace_back();
  }
  return script;
}

struct Outcome {
  std::size_t rounds = 0;
  std::size_t peak_queue = 0;
  std::size_t messages = 0;
};

Outcome run(std::size_t deg, bool paper_literal, std::size_t flickers) {
  const std::size_t n = 3 + deg;
  core::Robust3HopNode::Options opts;
  opts.paper_literal_l2_forward = paper_literal;
  net::Simulator sim(n, bench::factory_of<core::Robust3HopNode>(opts),
                     {.collect_phase_timings = true});
  net::ScriptedWorkload wl(star_script(deg, flickers));
  Outcome out;
  const auto start = std::chrono::steady_clock::now();
  while (!(wl.finished() && sim.all_consistent()) && out.rounds < 1000000) {
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    auto ev = wl.finished() ? std::vector<EdgeEvent>{} : wl.next_round(obs);
    sim.step(ev);
    ++out.rounds;
    for (NodeId v = 0; v < n; ++v) {
      out.peak_queue = std::max(out.peak_queue, sim.node(v).queue_length());
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  bench::perf_accumulator().add(harness::summarize_timed(sim, wall));
  out.messages = sim.metrics().messages();
  return out;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "abl_dedup", "EXP-ABL2",
                     "ablation: deletion-relay forwarding rule (Theorem 6)",
                     "the paper's l <= 1 re-forward rule makes one deletion "
                     "fan in as Theta(deg) relays at distance-2 nodes; "
                     "relay-chain scoping makes those relays provably "
                     "useless, and dropping them flattens the cost");
  const auto degs = bench.sweep<std::size_t>({4, 8, 16, 32, 64}, {4, 8, 16});
  const std::size_t flickers = bench.quick() ? 4 : 8;

  const std::size_t count = degs.size();
  harness::Series scoped_q{"scoped peak queue",
                           std::vector<harness::SeriesPoint>(count)};
  harness::Series literal_q{"paper-literal peak queue",
                            std::vector<harness::SeriesPoint>(count)};
  harness::Series scoped_msgs{"scoped messages",
                              std::vector<harness::SeriesPoint>(count)};
  harness::Series literal_msgs{"paper-literal messages",
                               std::vector<harness::SeriesPoint>(count)};
  std::printf("\n  %-8s | %-32s | %-32s\n", "deg", "scoped (l=0 forward only)",
              "paper-literal (l<=1 forward)");
  std::printf("  %-8s | %-9s %-10s %-10s | %-9s %-10s %-10s\n", "", "rounds",
              "peak q", "messages", "rounds", "peak q", "messages");
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t deg = degs[i];
    const auto scoped = run(deg, false, flickers);
    const auto literal = run(deg, true, flickers);
    std::printf("  %-8zu | %-9zu %-10zu %-10zu | %-9zu %-10zu %-10zu\n", deg,
                scoped.rounds, scoped.peak_queue, scoped.messages,
                literal.rounds, literal.peak_queue, literal.messages);
    const auto x = static_cast<double>(deg);
    scoped_q.points[i] = {x, static_cast<double>(scoped.peak_queue)};
    literal_q.points[i] = {x, static_cast<double>(literal.peak_queue)};
    scoped_msgs.points[i] = {x, static_cast<double>(scoped.messages)};
    literal_msgs.points[i] = {x, static_cast<double>(literal.messages)};
  }
  bench.report_json_only(
      "deg", {scoped_q, literal_q, scoped_msgs, literal_msgs});
  return bench.finish();
}
