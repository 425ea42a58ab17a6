// Micro-benchmarks (google-benchmark): throughput of the hot paths the
// experiment harnesses lean on -- simulator rounds per algorithm, the
// EdgeKnowledge state machine, and the oracle's enumeration routines.
//
// Speaks the repo-wide bench CLI (--quick, --json <path>) by translating
// it onto google-benchmark's own flags, so bench/run_all.sh can drive this
// binary like the experiment benches.  The JSON it emits is
// google-benchmark's schema, not harness/json.hpp's.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/edge_knowledge.hpp"
#include "core/robust2hop.hpp"
#include "core/robust3hop.hpp"
#include "core/triangle.hpp"
#include "dynamics/random_churn.hpp"
#include "net/simulator.hpp"
#include "oracle/robust_sets.hpp"
#include "oracle/subgraphs.hpp"

namespace dynsub {
namespace {

template <typename NodeT>
void run_rounds(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  net::Simulator sim(
      n,
      [](NodeId v, std::size_t nn) { return std::make_unique<NodeT>(v, nn); });
  dynamics::RandomChurnParams cp;
  cp.n = n;
  cp.target_edges = 2 * n;
  cp.max_changes = 4;
  cp.rounds = 1u << 30;  // never finishes; the bench controls duration
  cp.seed = 99;
  dynamics::RandomChurnWorkload wl(cp);
  for (auto _ : state) {
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    const auto events = wl.next_round(obs);
    sim.step(events);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["changes"] =
      static_cast<double>(sim.metrics().changes());
}

void BM_Round_Robust2Hop(benchmark::State& state) {
  run_rounds<core::Robust2HopNode>(state);
}
void BM_Round_Triangle(benchmark::State& state) {
  run_rounds<core::TriangleNode>(state);
}
void BM_Round_Robust3Hop(benchmark::State& state) {
  run_rounds<core::Robust3HopNode>(state);
}
BENCHMARK(BM_Round_Robust2Hop)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_Round_Triangle)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_Round_Robust3Hop)->Arg(64)->Arg(256)->Arg(512);

/// The acceptance criterion of the active-set engine: a quiescent round
/// (no events, every queue drained) costs O(1), independent of n.  The
/// per-iteration time must stay flat as n sweeps 1k -> 256k; the dense
/// reference mode (sparse = 0) shows the seed engine's Theta(n) growth.
void quiescent_round(benchmark::State& state, bool sparse) {
  const auto n = static_cast<std::size_t>(state.range(0));
  net::Simulator sim(
      n,
      [](NodeId v, std::size_t nn) {
        return std::make_unique<core::Robust2HopNode>(v, nn);
      },
      {.sparse_rounds = sparse});
  // A little topology plus a full drain, so quiescence is the steady
  // state of a real network, not the empty-graph special case.
  std::vector<EdgeEvent> ring;
  for (NodeId v = 0; v < 64; ++v) {
    ring.push_back(EdgeEvent::insert(v, (v + 1) % 64));
  }
  sim.step(ring);
  sim.run_until_stable(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step({}));
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_QuiescentRound_Sparse(benchmark::State& state) {
  quiescent_round(state, true);
}
void BM_QuiescentRound_Dense(benchmark::State& state) {
  quiescent_round(state, false);
}
BENCHMARK(BM_QuiescentRound_Sparse)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);
BENCHMARK(BM_QuiescentRound_Dense)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_EdgeKnowledge_InsertRetract(benchmark::State& state) {
  const NodeId self = 0;
  net::LocalView view(self);
  std::vector<EdgeEvent> links;
  for (NodeId u = 1; u <= 32; ++u) links.push_back(EdgeEvent::insert(0, u));
  view.apply(links, 1);
  core::EdgeKnowledge knowledge;
  Timestamp t = 2;
  for (auto _ : state) {
    for (NodeId u = 1; u <= 8; ++u) {
      for (NodeId w = 33; w < 41; ++w) {
        knowledge.accept_insert(Edge(u, w), u, 1);
      }
    }
    for (NodeId u = 1; u <= 8; ++u) knowledge.retract_neighbor(u, view);
    knowledge.prune_dead();
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EdgeKnowledge_InsertRetract);

oracle::TimestampedGraph random_graph(std::size_t n, double p,
                                      std::uint64_t seed) {
  oracle::TimestampedGraph g(n);
  Rng rng(seed);
  Round r = 1;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (rng.next_bool(p)) g.apply(EdgeEvent::insert(a, b), r++);
    }
  }
  return g;
}

void BM_Oracle_TrianglesThrough(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)), 0.1,
                              7);
  for (auto _ : state) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      benchmark::DoNotOptimize(oracle::triangles_through(g, v));
    }
  }
}
BENCHMARK(BM_Oracle_TrianglesThrough)->Arg(64)->Arg(128);

void BM_Oracle_All4Cycles(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)), 0.1,
                              8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::all_4_cycles(g));
  }
}
BENCHMARK(BM_Oracle_All4Cycles)->Arg(64)->Arg(128);

void BM_Oracle_Robust3Hop(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)), 0.08,
                              9);
  for (auto _ : state) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      benchmark::DoNotOptimize(oracle::robust_3hop(g, v));
    }
  }
}
BENCHMARK(BM_Oracle_Robust3Hop)->Arg(64)->Arg(128);

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  std::vector<std::string> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      args.emplace_back("--benchmark_min_time=0.01");
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --json requires a path argument\n", argv[0]);
        return 2;
      }
      args.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      args.emplace_back("--benchmark_out_format=json");
    } else if (arg.rfind("--json=", 0) == 0) {
      args.emplace_back("--benchmark_out=" + std::string(arg.substr(7)));
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.emplace_back(arg);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
