// dynsub_run -- one CLI for every scenario, every detector, and the queries
// a node answers while churn continues.
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
// Two request modes answer query()/list()/audit() requests WHILE the
// topology keeps changing: requests are timestamped on arrival, queued at a
// bounded backpressure seam, and answered only at round barriers against
// the just-completed round's snapshot -- every answer carries the round it
// reflects and is never torn across rounds.  Stdout (or --answers) carries
// the answer stream, so the human summary goes to stderr.
//
//   * --requests FILE: scripted.  Requests are scheduled by round ("@3
//     query 0 edge 0:1") and time comes from the deterministic SimClock, so
//     the whole answer stream -- latencies and percentiles included -- is
//     byte-identical across --threads, --shards and --record / --replay:
//
//       dynsub_run --scenario flash-crowd --quick --requests qs.txt
//                  --answers answers.txt --record run.trace
//       dynsub_run --replay run.trace --requests qs.txt
//                  --answers answers2.txt   # answers2 == answers, bytewise
//
//   * --stdin: a daemon.  An engine thread keeps rounds flowing under
//     WallClock; each stdin line is one request ("query 0 edge 0:1", "list
//     2 triangle", "audit"), answered as round barriers produce results.
//
// Backpressure is explicit: --queue-capacity bounds the queue and --policy
// picks what a full queue does (shed = refuse with status=shed /
// answer=inconsistent; block = stall the producer until a barrier drains).
// --drain-budget caps answers per barrier so a backlog is observable.
// Under --faults chaos plans, queries at degraded nodes answer
// kInconsistent until the network re-converges -- same run, same stream.
//
// Everything resolves through the registries: scenarios through
// scenario::build_scenario, detectors through detect::build_detector, and
// the whole stack is assembled by a detect::Session -- this tool wires no
// components by hand.  The JSON summary is produced without wall-clock
// timing, so a recorded run and its replay emit byte-identical "summary"
// objects -- which is exactly what the CI scenario-smoke job asserts.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
#include "serve/clock.hpp"
#include "serve/export.hpp"
#include "serve/loop.hpp"
#include "serve/server.hpp"
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
  // Request modes: --requests or --stdin picks one; the rest tune it.
  std::string requests_path;
  bool use_stdin = false;
  std::string answers_path;
  std::string serve_jsonl_path;
  std::size_t queue_capacity = 1024;
  serve::OverflowPolicy policy = serve::OverflowPolicy::kShed;
  std::size_t drain_budget = 0;
  std::uint64_t tick_ns = serve::SimClock::kDefaultTickNs;
  /// The last request-mode flag given, named by the usage error when
  /// neither --requests nor --stdin is.
  const char* serve_flag = nullptr;

  [[nodiscard]] bool serving() const {
    return use_stdin || !requests_path.empty();
  }
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s --scenario <name-or-spec> [options]\n"
      "       %s --replay <trace-file> [options]\n"
      "       %s --list [--names-only]\n"
      "       %s --list-detectors\n"
      "\n"
      "Every flag value may be given as '--flag value' or '--flag=value'.\n"
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
      "                  record and replay emit identical summaries; in a\n"
      "                  request mode it also carries queries_answered/shed,\n"
      "                  queries_per_sec and answer_p50_ns/answer_p99_ns)\n"
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
      "  --list-detectors  one runnable detector spec per line (scripts)\n"
      "\n"
      "Request modes (answers go to stdout, the summary to stderr):\n"
      "  --requests F    scripted (deterministic SimClock): a file of\n"
      "                  round-scheduled requests, one per line:\n"
      "                    @3 query 0 edge 0:1\n"
      "                    @5 query 4 triangle 2 7\n"
      "                    @8 list 0 triangle\n"
      "                    @9 audit\n"
      "  --stdin         daemon (WallClock): read one request per stdin\n"
      "                  line (same syntax, no @round), answer as round\n"
      "                  barriers produce results\n"
      "  --answers PATH  write the answer stream there ('-' or omitted:\n"
      "                  stdout)\n"
      "  --serve-jsonl PATH  write one JSON record per answer (fixed\n"
      "                  schema; summarize with dynsub_stats)\n"
      "  --queue-capacity C  bounded request queue size (default 1024)\n"
      "  --policy P      full-queue policy: shed | block (default shed)\n"
      "  --drain-budget B    answers per round barrier, 0 = all (default)\n"
      "  --tick-ns T     SimClock nanoseconds per round (default %llu)\n",
      argv0, argv0, argv0, argv0,
      static_cast<unsigned long long>(serve::SimClock::kDefaultTickNs));
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  harness::FlagReader args(argc, argv);
  std::string why;  // the reason a value parser gives for refusing
  const auto set = [&](auto parsed, auto& field) {
    if (parsed) {
      field = *parsed;
    } else {
      args.fail(why);
    }
  };
  std::string_view v;
  while (args.next()) {
    if (args.flag("--scenario", &v)) {
      o.scenario = v;
    } else if (args.flag("--replay", &v)) {
      o.replay_path = v;
    } else if (args.flag("--record", &v)) {
      o.record_path = v;
    } else if (args.flag("--json", &v)) {
      o.json_path = v;
    } else if (args.flag("--telemetry", &v)) {
      o.telemetry_path = v;
    } else if (args.flag("--chrome-trace", &v)) {
      o.chrome_trace_path = v;
    } else if (args.flag("--shard-stats", &v)) {
      o.shard_stats_path = v;
    } else if (args.flag("--detector", &v)) {
      o.detector = v;
    } else if (args.flag("--n", &v)) {
      set(harness::parse_u64_flag("--n", v, &why), o.n);
    } else if (args.flag("--threads", &v)) {
      set(harness::parse_threads_flag(v, &why), o.threads);
    } else if (args.flag("--shards", &v)) {
      set(harness::parse_shards_flag(v, &why), o.shards);
    } else if (args.flag("--faults", &v)) {
      set(harness::parse_faults_flag(v, &why), o.faults);
    } else if (args.flag("--seed", &v)) {
      set(harness::parse_seed_flag(v, &why), o.seed);
    } else if (args.flag("--max-rounds", &v)) {
      set(harness::parse_u64_flag("--max-rounds", v, &why), o.max_rounds);
    } else if (args.flag("--requests", &v)) {
      o.requests_path = v;
    } else if (args.flag("--answers", &v)) {
      o.answers_path = v;
      o.serve_flag = "--answers";
    } else if (args.flag("--serve-jsonl", &v)) {
      o.serve_jsonl_path = v;
      o.serve_flag = "--serve-jsonl";
    } else if (args.flag("--queue-capacity", &v)) {
      set(harness::parse_u64_flag("--queue-capacity", v, &why),
          o.queue_capacity);
      if (o.queue_capacity == 0) args.fail("--queue-capacity must be >= 1");
      o.serve_flag = "--queue-capacity";
    } else if (args.flag("--policy", &v)) {
      if (v == "shed") {
        o.policy = serve::OverflowPolicy::kShed;
      } else if (v == "block") {
        o.policy = serve::OverflowPolicy::kBlock;
      } else {
        args.fail("--policy wants shed|block, got '" + std::string(v) + "'");
      }
      o.serve_flag = "--policy";
    } else if (args.flag("--drain-budget", &v)) {
      set(harness::parse_u64_flag("--drain-budget", v, &why), o.drain_budget);
      o.serve_flag = "--drain-budget";
    } else if (args.flag("--tick-ns", &v)) {
      set(harness::parse_u64_flag("--tick-ns", v, &why), o.tick_ns);
      if (o.tick_ns == 0) args.fail("--tick-ns must be >= 1");
      o.serve_flag = "--tick-ns";
    } else if (args.flag("--stdin")) {
      o.use_stdin = true;
    } else if (args.flag("--quick")) {
      o.quick = true;
    } else if (args.flag("--list")) {
      o.list = true;
    } else if (args.flag("--list-detectors")) {
      o.list_detectors = true;
    } else if (args.flag("--names-only")) {
      o.names_only = true;
    } else if (args.flag("--help") || args.flag("-h")) {
      usage(argv[0]);
      std::exit(0);
    } else {
      args.unknown();
    }
  }
  if (!args.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], args.error().c_str());
    return std::nullopt;
  }
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

/// Builds the Session from the scenario spec, or from a strict trace
/// replay (harness/trace_replay.hpp); *spec_label names what runs.
std::optional<detect::Session> open_session(const Options& o,
                                            detect::SessionOptions sopts,
                                            std::string* spec_label) {
  std::string error;
  std::optional<detect::Session> session;
  if (!o.replay_path.empty()) {
    session = harness::open_trace_replay(o.replay_path, std::move(sopts),
                                         &error);
    *spec_label = "replay:" + o.replay_path;
  } else {
    sopts.scenario = o.scenario;
    session = detect::Session::open(std::move(sopts), &error);
    if (session) *spec_label = session->scenario_spec();
  }
  if (!session) std::fprintf(stderr, "dynsub_run: %s\n", error.c_str());
  return session;
}

/// What a request-mode run served.
struct Served {
  serve::ServeConfig config;
  std::size_t rounds = 0;
  serve::ServeStats stats;
  std::vector<serve::Response> responses;  // kept for --serve-jsonl only
};

/// Drives `session` through the requests in place of Session::run(): the
/// --requests script under SimClock (ServeLoop) or stdin lines under
/// WallClock (Server), writing each answer to the answer stream as one
/// line.  Returns nullopt, after saying why, when the script cannot be
/// read or parsed or the answer stream cannot be written.
std::optional<Served> serve_requests(const Options& o,
                                     detect::Session& session) {
  serve::RequestScript script;
  if (!o.use_stdin) {
    std::ifstream in(o.requests_path);
    if (!in) {
      std::fprintf(stderr, "dynsub_run: cannot open requests '%s'\n",
                   o.requests_path.c_str());
      return std::nullopt;
    }
    std::stringstream buffered;
    buffered << in.rdbuf();
    std::string error;
    auto parsed = serve::parse_request_script(buffered.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "dynsub_run: %s: %s\n", o.requests_path.c_str(),
                   error.c_str());
      return std::nullopt;
    }
    script = std::move(*parsed);
  }

  std::ofstream answers_file;
  const bool answers_to_stdout =
      o.answers_path.empty() || o.answers_path == "-";
  if (!answers_to_stdout) {
    answers_file.open(o.answers_path);
    if (!answers_file) {
      std::fprintf(stderr, "dynsub_run: cannot write answers '%s'\n",
                   o.answers_path.c_str());
      return std::nullopt;
    }
  }
  std::ostream& answers = answers_to_stdout ? std::cout : answers_file;

  Served served;
  served.config.queue.capacity = o.queue_capacity;
  served.config.queue.policy = o.policy;
  served.config.drain_budget = o.drain_budget;
  served.config.max_rounds = o.max_rounds;
  const auto emit = [&](const serve::Response& r) {
    answers << serve::to_line(r) << '\n';
    if (o.use_stdin) answers.flush();  // a daemon's client waits on it
    if (!o.serve_jsonl_path.empty()) served.responses.push_back(r);
  };

  if (o.use_stdin) {
    serve::WallClock clock;
    serve::Server server(session, clock, served.config);
    server.start();
    std::string line;
    while (std::getline(std::cin, line)) {
      const auto begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos || line[begin] == '#') continue;
      std::string error;
      auto req = serve::parse_request_line(line.substr(begin), &error);
      if (!req) {
        std::fprintf(stderr, "dynsub_run: %s\n", error.c_str());
        continue;
      }
      if (auto refusal = server.submit(std::move(*req))) emit(*refusal);
      for (const auto& r : server.take_responses()) emit(r);
    }
    server.stop();
    for (const auto& r : server.take_responses()) emit(r);
    served.stats = server.stats();
    served.rounds = static_cast<std::size_t>(session.sim().round());
  } else {
    serve::SimClock clock(o.tick_ns);
    serve::ServeLoop loop(session, clock, served.config);
    served.rounds = loop.run(script, emit);
    served.stats = loop.stats();
  }
  if (!answers.good()) {
    std::fprintf(stderr, "dynsub_run: failed writing answer stream\n");
    return std::nullopt;
  }
  return served;
}

/// Writes one output file through `write`; false, after saying so on
/// stderr, when the file cannot be written.
template <typename Write>
bool write_output(const std::string& path, const char* what,
                  const Write& write) {
  std::ofstream out(path);
  if (out) write(out);
  if (out.good()) return true;
  std::fprintf(stderr, "dynsub_run: failed to write %s '%s'\n", what,
               path.c_str());
  return false;
}

/// One JSON line per shard, leading key "shard" (dynsub_stats
/// discriminates record types by that key).  The counters are the
/// cross-seam story only: frames and wire bytes that actually crossed this
/// shard's ingress, plus faults and lost batches charged to it.
void write_shard_stats(std::ostream& out,
                       const std::vector<net::ShardStats>& per_shard) {
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const net::ShardStats& st = per_shard[s];
    out << "{\"shard\":" << s << ",\"frames\":" << st.frames
        << ",\"wire_bytes\":" << st.wire_bytes << ",\"faults\":" << st.faults
        << ",\"lost_batches\":" << st.lost_batches << "}\n";
  }
}

void print_summary(std::FILE* out, const std::string& spec_label,
                   const detect::Session& session, std::size_t rounds_run,
                   const harness::RunSummary& summary, const Served* served) {
  const detect::DetectorInfo& dinfo = session.detector().info();
  std::string query_kinds;
  for (const auto kind : dinfo.queries) {
    if (!query_kinds.empty()) query_kinds += ", ";
    query_kinds += to_string(kind);
  }
  std::fprintf(out, "scenario:   %s\n", spec_label.c_str());
  std::fprintf(out, "detector:   %s (%s)\n", dinfo.spec.c_str(),
               std::string(to_string(dinfo.problem)).c_str());
  std::fprintf(out, "queries:    %s\n", query_kinds.c_str());
  std::fprintf(out, "n:          %zu\n", session.nodes());
  std::fprintf(out, "rounds:     %zu (driver), %lld (simulated)\n",
               rounds_run, static_cast<long long>(summary.rounds));
  std::fprintf(out, "changes:    %llu\n",
               static_cast<unsigned long long>(summary.changes));
  std::fprintf(out, "messages:   %llu\n",
               static_cast<unsigned long long>(summary.messages));
  std::fprintf(out, "amortized:  %.4f inconsistent rounds/change (sup %.4f)\n",
               summary.amortized, summary.amortized_sup);
  if (served != nullptr) {
    const serve::ServeStats& stats = served->stats;
    std::fprintf(out, "queue:      capacity=%zu policy=%s drain_budget=%zu\n",
                 served->config.queue.capacity,
                 serve::to_string(served->config.queue.policy),
                 served->config.drain_budget);
    std::fprintf(out,
                 "requests:   %llu accepted, %llu answered, %llu shed, "
                 "backlog peak %llu\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.answered),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.backlog_peak));
    std::fprintf(out, "latency:    p50=%.0fns p99=%.0fns (%.1f queries/sec)\n",
                 stats.latency_ns.p50(), stats.latency_ns.p99(),
                 stats.queries_per_sec());
  }
  std::fprintf(out, "settled:    %s\n", session.settled() ? "yes" : "no");
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

  std::string spec_label;
  std::optional<detect::Session> session =
      open_session(o, std::move(sopts), &spec_label);
  if (!session) return 1;

  // A request mode replaces Session::run() and owns stdout for the answer
  // stream, so every human line goes to stderr instead.
  std::optional<Served> served;
  std::size_t rounds_run = 0;
  if (o.serving()) {
    served = serve_requests(o, *session);
    if (!served) return 1;
    rounds_run = served->rounds;
  } else {
    rounds_run = session->run();
  }
  std::FILE* human = o.serving() ? stderr : stdout;
  const std::size_t nodes = session->nodes();

  if (!o.record_path.empty() &&
      !write_output(o.record_path, "trace", [&](std::ostream& out) {
        out << "# dynsub_run trace of: " << spec_label << "\n";
        out << "# n=" << nodes << "\n";
        net::write_trace(out, session->recorded());
      })) {
    return 1;
  }

  harness::RunSummary summary = session->summary();
  if (served) {
    summary.queries_answered = served->stats.answered;
    summary.queries_shed = served->stats.shed;
    summary.queries_per_sec = served->stats.queries_per_sec();
    summary.answer_p50_ns = served->stats.latency_ns.p50();
    summary.answer_p99_ns = served->stats.latency_ns.p99();
  }
  print_summary(human, spec_label, *session, rounds_run, summary,
                served ? &*served : nullptr);
  if (!o.record_path.empty()) {
    std::fprintf(human, "trace:      %s\n", o.record_path.c_str());
  }

  if (!o.telemetry_path.empty()) {
    if (!write_output(o.telemetry_path, "telemetry", [&](std::ostream& out) {
          telemetry::write_round_jsonl(out, recorder.rounds());
        })) {
      return 1;
    }
    std::fprintf(human, "telemetry:  %s (%zu rounds)\n",
                 o.telemetry_path.c_str(), recorder.rounds().size());
  }
  if (!o.shard_stats_path.empty()) {
    const auto& per_shard = session->sim().metrics().shard_stats();
    if (!write_output(o.shard_stats_path, "shard stats",
                      [&](std::ostream& out) {
                        write_shard_stats(out, per_shard);
                      })) {
      return 1;
    }
    std::fprintf(human, "shards:     %s (%zu shards)\n",
                 o.shard_stats_path.c_str(), per_shard.size());
  }
  if (!o.chrome_trace_path.empty()) {
    if (!write_output(o.chrome_trace_path, "chrome trace",
                      [&](std::ostream& out) {
                        telemetry::write_chrome_trace(out, recorder);
                      })) {
      return 1;
    }
    std::fprintf(human, "chrome:     %s (%zu lanes)\n",
                 o.chrome_trace_path.c_str(), recorder.lanes());
  }
  if (!o.serve_jsonl_path.empty()) {
    if (!write_output(o.serve_jsonl_path, "serve JSONL",
                      [&](std::ostream& out) {
                        serve::write_serve_jsonl(out, served->responses);
                      })) {
      return 1;
    }
    std::fprintf(human, "serve:      %s (%zu answers)\n",
                 o.serve_jsonl_path.c_str(), served->responses.size());
  }

  if (!o.json_path.empty()) {
    const harness::Json doc = harness::make_run_document(
        "dynsub_run", spec_label, session->detector().info().spec, nodes,
        session->settled(), summary);
    if (!harness::write_json_file(o.json_path, doc)) {
      std::fprintf(stderr, "dynsub_run: failed to write %s\n",
                   o.json_path.c_str());
      return 1;
    }
    std::fprintf(human, "json:       %s\n", o.json_path.c_str());
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
  const char* misuse = nullptr;
  if (!opts->scenario.empty() && !opts->replay_path.empty()) {
    misuse = "--scenario and --replay are exclusive";
  } else if (opts->use_stdin && !opts->requests_path.empty()) {
    misuse = "--stdin and --requests are exclusive";
  }
  if (misuse != nullptr) {
    std::fprintf(stderr, "dynsub_run: %s\n", misuse);
    return 2;
  }
  if (!opts->serving() && opts->serve_flag != nullptr) {
    std::fprintf(stderr, "dynsub_run: %s needs --requests or --stdin\n",
                 opts->serve_flag);
    return 2;
  }
  return dynsub::run(*opts);
}
