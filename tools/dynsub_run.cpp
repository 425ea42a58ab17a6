// dynsub_run -- one CLI for every scenario and every detector.
//
// Runs any registered scenario (or any spec string in the scenario grammar)
// against any registered detector (or any spec string in the detector
// grammar) at any n, prints a human summary, optionally writes the standard
// RunSummary JSON, and can record the emitted event trace and replay it
// bit-identically later:
//
//   dynsub_run --list
//   dynsub_run --scenario flash-crowd --quick
//   dynsub_run --scenario 'throttle(churn(n=64, max=12), cap=3)'
//              --detector 'triangle(k=4)' --json out.json
//   dynsub_run --scenario multi-community-churn --record crowd.trace
//   dynsub_run --replay crowd.trace --detector robust3hop --json replayed.json
//
// Everything resolves through the registries: scenarios through
// scenario::build_scenario, detectors through detect::build_detector, and
// the whole stack is assembled by a detect::Session -- this tool wires no
// components by hand.  The JSON summary is produced without wall-clock
// timing, so a recorded run and its replay emit byte-identical "summary"
// objects -- which is exactly what the CI scenario-smoke job asserts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/format.hpp"
#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "harness/engine_flags.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/trace_replay.hpp"
#include "net/faults.hpp"
#include "net/metrics.hpp"
#include "net/trace.hpp"
#include "scenario/registry.hpp"
#include "telemetry/export.hpp"
#include "telemetry/recorder.hpp"

namespace dynsub {
namespace {

struct Options {
  std::string scenario;
  std::string replay_path;
  std::string record_path;
  std::string json_path;
  std::string telemetry_path;
  std::string chrome_trace_path;
  std::string shard_stats_path;
  std::string detector = "triangle";
  net::FaultPlan faults{};
  std::size_t n = 0;
  std::size_t threads = 0;
  std::size_t shards = 1;
  std::uint64_t seed = 1;
  bool quick = false;
  bool list = false;
  bool list_detectors = false;
  bool names_only = false;
  std::size_t max_rounds = 1000000;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s --scenario <name-or-spec> [options]\n"
      "       %s --replay <trace-file> [options]\n"
      "       %s --list [--names-only]\n"
      "\n"
      "  --scenario S    a registered scenario name or a spec string,\n"
      "                  e.g. 'overlay(churn(n=32), planted-clique(n=32))'\n"
      "  --replay PATH   drive the simulation from a recorded trace instead\n"
      "  --detector D    a registered detector name or a spec string,\n"
      "                  e.g. 'triangle(k=4)' or 'flood(radius=3)'\n"
      "                  (default: triangle; --list prints the registry)\n"
      "  --n N           default node count (a spec's n parameter wins;\n"
      "                  the simulator is sized to fit the scenario)\n"
      "  --threads T     parallel round engine with T lanes (0 or 1 =\n"
      "                  sequential; results are bit-identical)\n"
      "  --shards S      partition the network into S shards, each with\n"
      "                  its own Router; cross-shard traffic crosses the\n"
      "                  transport seam as encoded lane-batch frames at\n"
      "                  the round barrier (default 1; results are\n"
      "                  bit-identical at every S)\n"
      "  --shard-stats PATH  write one JSON line per shard (frames,\n"
      "                  wire bytes, faults, lost batches crossing that\n"
      "                  shard's ingress); summarize with dynsub_stats\n"
      "  --faults F      fault plan for the lane-batch transport seam:\n"
      "                  'none' (default) or 'chaos(seed=7, drop=0.01,\n"
      "                  corrupt=0.005, duplicate=0.01, reorder=0.1,\n"
      "                  delay=0.01, retries=8, backoff_base=1,\n"
      "                  backoff_cap=64, kill_lane=2, kill_from=10,\n"
      "                  kill_until=20)' -- every parameter optional;\n"
      "                  recoverable faults replay bit-identically\n"
      "  --seed S        default seed for stochastic scenarios (default 1)\n"
      "  --quick         shrink default round counts (CI smoke)\n"
      "  --max-rounds R  round cap for the run (default 1000000)\n"
      "  --record PATH   write the emitted event trace for later --replay\n"
      "  --json PATH     write the run document (summary is timing-free, so\n"
      "                  record and replay emit identical summaries)\n"
      "  --telemetry PATH     write per-round telemetry as JSON Lines (the\n"
      "                  deterministic channel: byte-identical across\n"
      "                  record/replay and, fault-free, across --threads;\n"
      "                  summarize with dynsub_stats)\n"
      "  --chrome-trace PATH  write wall-clock phase spans in Chrome\n"
      "                  trace-event JSON (load in chrome://tracing or\n"
      "                  Perfetto; one track per engine lane).  Timing\n"
      "                  data -- never byte-stable across runs\n"
      "  --list          print the scenario and detector registries and exit\n"
      "  --names-only    with --list: one runnable scenario name per line\n"
      "  --list-detectors  one runnable detector spec per line (scripts)\n",
      argv0, argv0, argv0);
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool parse_failed = false;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires an argument\n", argv[0],
                   argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  // Strict: a typo like "--n 10O0" must be an error, not a silent 10.
  auto parse_flag_u64 = [&](const char* flag,
                            const char* text) -> std::uint64_t {
    const auto v = parse_u64(text);
    if (!v) {
      std::fprintf(stderr, "%s: %s wants an unsigned integer, got '%s'\n",
                   argv[0], flag, text);
      parse_failed = true;
      return 0;
    }
    return *v;
  };
  // The engine flags share their value checks with every front end.
  std::string error;
  auto engine_flag = [&](auto parsed, auto& field) {
    if (parsed) {
      field = *parsed;
    } else {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      parse_failed = true;
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = nullptr;
    if (arg == "--scenario") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.scenario = v;
    } else if (arg == "--replay") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.replay_path = v;
    } else if (arg == "--record") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.record_path = v;
    } else if (arg == "--json") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.json_path = v;
    } else if (arg == "--telemetry") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.telemetry_path = v;
    } else if (arg == "--chrome-trace") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.chrome_trace_path = v;
    } else if (arg == "--detector") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.detector = v;
    } else if (arg == "--n") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.n = static_cast<std::size_t>(parse_flag_u64("--n", v));
    } else if (arg == "--threads") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      engine_flag(harness::parse_threads_flag(v, &error), o.threads);
    } else if (arg == "--shards") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      engine_flag(harness::parse_shards_flag(v, &error), o.shards);
    } else if (arg == "--shard-stats") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.shard_stats_path = v;
    } else if (arg == "--faults") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      engine_flag(harness::parse_faults_flag(v, &error), o.faults);
    } else if (arg == "--seed") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      engine_flag(harness::parse_seed_flag(v, &error), o.seed);
    } else if (arg == "--max-rounds") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.max_rounds =
          static_cast<std::size_t>(parse_flag_u64("--max-rounds", v));
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--list") {
      o.list = true;
    } else if (arg == "--list-detectors") {
      o.list_detectors = true;
    } else if (arg == "--names-only") {
      o.names_only = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                   argv[0], argv[i]);
      return std::nullopt;
    }
  }
  if (parse_failed) return std::nullopt;
  return o;
}

const char* kind_label(scenario::ScenarioKind kind) {
  switch (kind) {
    case scenario::ScenarioKind::kPrimitive:
      return "primitive";
    case scenario::ScenarioKind::kCombinator:
      return "combinator";
    case scenario::ScenarioKind::kComposite:
      return "composite";
  }
  return "?";
}

const char* kind_label(detect::DetectorKind kind) {
  switch (kind) {
    case detect::DetectorKind::kCore:
      return "core";
    case detect::DetectorKind::kBaseline:
      return "baseline";
    case detect::DetectorKind::kAlias:
      return "alias";
  }
  return "?";
}

int list_detector_specs() {
  // One runnable detector spec per line, for scripts (the CI smoke loop).
  for (const auto& info : detect::detector_catalog()) {
    std::printf("%s\n", info.example.c_str());
  }
  return 0;
}

int list_registry(bool names_only) {
  const auto& catalog = scenario::scenario_catalog();
  if (names_only) {
    // One runnable entry per line, for scripts (the CI smoke loop).
    // Combinators cannot run bare, so their example spec stands in.
    for (const auto& info : catalog) {
      if (info.kind == scenario::ScenarioKind::kCombinator) {
        std::printf("%s\n", info.example.c_str());
      } else {
        std::printf("%s\n", info.name.c_str());
      }
    }
    return 0;
  }
  std::printf("registered scenarios (%zu):\n\n", catalog.size());
  for (const auto& info : catalog) {
    std::printf("  %-36s %-10s %s\n", info.name.c_str(),
                kind_label(info.kind), info.summary.c_str());
    std::printf("  %-36s %-10s e.g. %s\n", "", "", info.example.c_str());
  }
  const auto& detectors = detect::detector_catalog();
  std::printf("\nregistered detectors (%zu):\n\n", detectors.size());
  for (const auto& info : detectors) {
    std::printf("  %-36s %-10s %s\n", info.name.c_str(),
                kind_label(info.kind), info.summary.c_str());
    std::printf("  %-36s %-10s e.g. %s\n", "", "", info.example.c_str());
  }
  std::printf(
      "\nspec grammar: name(param=value, child, ...), nestable; see "
      "src/scenario/spec.hpp\n");
  return 0;
}

int run(const Options& o) {
  // The recorder outlives the Session (the simulator holds a raw pointer
  // to it).  Timing + raw spans only when a Chrome trace was asked for;
  // round records only when JSONL was -- a --chrome-trace-only run keeps
  // the deterministic channel's storage off.
  telemetry::TelemetryRecorder recorder(
      telemetry::RecorderOptions{.timing = !o.chrome_trace_path.empty(),
                                 .keep_rounds = !o.telemetry_path.empty(),
                                 .keep_spans = !o.chrome_trace_path.empty()});
  const bool want_telemetry =
      !o.telemetry_path.empty() || !o.chrome_trace_path.empty();

  detect::SessionOptions sopts;
  sopts.detector = o.detector;
  sopts.n = o.n;
  sopts.seed = o.seed;
  sopts.quick = o.quick;
  sopts.max_rounds = o.max_rounds;
  sopts.record = !o.record_path.empty();
  sopts.sim = {.sparse_rounds = true,
               .collect_phase_timings = false,
               .threads = o.threads,
               .shards = o.shards,
               .faults = o.faults};
  if (want_telemetry) sopts.sim.telemetry = &recorder;

  // Resolve the detector spec first so an unknown name is a usage error
  // (exit 2) carrying the registry, not a generic run failure.
  {
    std::string error;
    if (detect::build_detector(o.detector, &error) == nullptr) {
      std::fprintf(stderr, "dynsub_run: %s\n", error.c_str());
      return 2;
    }
  }

  std::optional<detect::Session> session;
  std::string error;
  std::string spec_label;

  if (!o.replay_path.empty()) {
    session = harness::open_trace_replay(o.replay_path, std::move(sopts),
                                         &error);
    spec_label = "replay:" + o.replay_path;
  } else {
    sopts.scenario = o.scenario;
    session = detect::Session::open(std::move(sopts), &error);
    if (session) spec_label = session->scenario_spec();
  }
  if (!session) {
    std::fprintf(stderr, "dynsub_run: %s\n", error.c_str());
    return 1;
  }

  const std::size_t rounds_run = session->run();
  const std::size_t nodes = session->nodes();
  const detect::DetectorInfo& dinfo = session->detector().info();

  if (!o.record_path.empty()) {
    std::ofstream out(o.record_path);
    if (!out) {
      std::fprintf(stderr, "dynsub_run: cannot write trace '%s'\n",
                   o.record_path.c_str());
      return 1;
    }
    out << "# dynsub_run trace of: " << spec_label << "\n";
    out << "# n=" << nodes << "\n";
    net::write_trace(out, session->recorded());
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_run: failed writing trace '%s'\n",
                   o.record_path.c_str());
      return 1;
    }
  }

  std::string query_kinds;
  for (const auto kind : dinfo.queries) {
    if (!query_kinds.empty()) query_kinds += ", ";
    query_kinds += to_string(kind);
  }

  const harness::RunSummary summary = session->summary();
  std::printf("scenario:   %s\n", spec_label.c_str());
  std::printf("detector:   %s (%s)\n", dinfo.spec.c_str(),
              std::string(to_string(dinfo.problem)).c_str());
  std::printf("queries:    %s\n", query_kinds.c_str());
  std::printf("n:          %zu\n", nodes);
  std::printf("rounds:     %zu (driver), %lld (simulated)\n", rounds_run,
              static_cast<long long>(summary.rounds));
  std::printf("changes:    %llu\n",
              static_cast<unsigned long long>(summary.changes));
  std::printf("messages:   %llu\n",
              static_cast<unsigned long long>(summary.messages));
  std::printf("amortized:  %.4f inconsistent rounds/change (sup %.4f)\n",
              summary.amortized, summary.amortized_sup);
  std::printf("settled:    %s\n", session->settled() ? "yes" : "no");
  if (!o.record_path.empty()) {
    std::printf("trace:      %s\n", o.record_path.c_str());
  }

  if (!o.telemetry_path.empty()) {
    std::ofstream out(o.telemetry_path);
    if (out) telemetry::write_round_jsonl(out, recorder.rounds());
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_run: failed to write telemetry '%s'\n",
                   o.telemetry_path.c_str());
      return 1;
    }
    std::printf("telemetry:  %s (%zu rounds)\n", o.telemetry_path.c_str(),
                recorder.rounds().size());
  }
  if (!o.shard_stats_path.empty()) {
    // One JSON line per shard, leading key "shard" (dynsub_stats
    // discriminates record types by that key).  The counters are the
    // cross-seam story only: frames and wire bytes that actually crossed
    // this shard's ingress, plus faults and lost batches charged to it.
    std::ofstream out(o.shard_stats_path);
    const auto& per_shard = session->sim().metrics().shard_stats();
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      const net::ShardStats& st = per_shard[s];
      if (out) {
        out << "{\"shard\":" << s << ",\"frames\":" << st.frames
            << ",\"wire_bytes\":" << st.wire_bytes
            << ",\"faults\":" << st.faults
            << ",\"lost_batches\":" << st.lost_batches << "}\n";
      }
    }
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_run: failed to write shard stats '%s'\n",
                   o.shard_stats_path.c_str());
      return 1;
    }
    std::printf("shards:     %s (%zu shards)\n", o.shard_stats_path.c_str(),
                per_shard.size());
  }
  if (!o.chrome_trace_path.empty()) {
    std::ofstream out(o.chrome_trace_path);
    if (out) telemetry::write_chrome_trace(out, recorder);
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_run: failed to write chrome trace '%s'\n",
                   o.chrome_trace_path.c_str());
      return 1;
    }
    std::printf("chrome:     %s (%zu lanes)\n", o.chrome_trace_path.c_str(),
                recorder.lanes());
  }

  if (!o.json_path.empty()) {
    const harness::Json doc = harness::make_run_document(
        "dynsub_run", spec_label, dinfo.spec, nodes, session->settled(),
        summary);
    if (!harness::write_json_file(o.json_path, doc)) {
      std::fprintf(stderr, "dynsub_run: failed to write %s\n",
                   o.json_path.c_str());
      return 1;
    }
    std::printf("json:       %s\n", o.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  const auto opts = dynsub::parse_args(argc, argv);
  if (!opts) return 2;
  if (opts->list_detectors) return dynsub::list_detector_specs();
  if (opts->list) return dynsub::list_registry(opts->names_only);
  if (opts->scenario.empty() && opts->replay_path.empty()) {
    dynsub::usage(argv[0]);
    return 2;
  }
  if (!opts->scenario.empty() && !opts->replay_path.empty()) {
    std::fprintf(stderr,
                 "dynsub_run: --scenario and --replay are exclusive\n");
    return 2;
  }
  return dynsub::run(*opts);
}
