// Shared plumbing for the experiment benches.
//
// Every bench regenerates one artifact of the paper (a theorem's complexity
// curve, a figure's construction, or an ablation) and prints a standard
// block: the claim, a results table, an ASCII chart of the series, and the
// log-log slope of each curve so the growth shape is a number.  Every run
// is a detect::Session opened from a detector spec and a scenario spec
// (run_session), so each sweep point reproduces as `dynsub_run --scenario
// S --detector D`.  Sweep points are independent simulations and run on a
// thread pool.
//
// All benches speak the same CLI, read with dynsub_run's argv grammar
// (harness/engine_flags.hpp: "--flag value" or "--flag=value"):
//   --quick         reduced sweep (CI smoke / fast local iteration)
//   --seed / --threads / --shards   override the bench's defaults
//   --json <path>   also write the results as a BENCH_<name>.json document
//                   (schema in harness/json.hpp); bench/run_all.sh drives
//                   every binary this way to feed the perf trajectory
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/format.hpp"
#include "detect/session.hpp"
#include "harness/engine_flags.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "net/workload.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/recorder.hpp"

namespace dynsub::bench {

/// Process-wide perf aggregate across every run_session() call (sweep
/// points may run on the harness thread pool, hence atomics).  Bench::finish
/// folds it into the JSON document as perf.* metrics, which is what the
/// BENCH_*.json trajectory and bench/check_regression.py track.
struct PerfAccumulator {
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> wall_ns{0};
  std::atomic<std::uint64_t> apply_ns{0};
  std::atomic<std::uint64_t> react_ns{0};
  std::atomic<std::uint64_t> route_ns{0};
  std::atomic<std::uint64_t> receive_ns{0};

  void add(const harness::RunSummary& s) {
    rounds.fetch_add(static_cast<std::uint64_t>(s.rounds),
                     std::memory_order_relaxed);
    wall_ns.fetch_add(static_cast<std::uint64_t>(s.wall_seconds * 1e9),
                      std::memory_order_relaxed);
    apply_ns.fetch_add(s.apply_ns, std::memory_order_relaxed);
    react_ns.fetch_add(s.react_ns, std::memory_order_relaxed);
    route_ns.fetch_add(s.route_ns, std::memory_order_relaxed);
    receive_ns.fetch_add(s.receive_ns, std::memory_order_relaxed);
  }

  [[nodiscard]] double rounds_per_sec() const {
    const auto ns = wall_ns.load(std::memory_order_relaxed);
    if (ns == 0) return 0.0;
    return static_cast<double>(rounds.load(std::memory_order_relaxed)) /
           (static_cast<double>(ns) * 1e-9);
  }

  /// Folds one run's round-latency histogram (a telemetry recorder in
  /// histogram-only mode) into the process-wide latency distribution.
  /// Histogram merge is not atomic, hence the lock -- sweep points on the
  /// harness pool call this once per run, not per round, so it is cold.
  void add_latency(const telemetry::Log2Histogram& h) {
    const std::lock_guard<std::mutex> lock(latency_mutex);
    latency_ns.merge(h);
  }

  [[nodiscard]] telemetry::Log2Histogram latency() const {
    const std::lock_guard<std::mutex> lock(latency_mutex);
    return latency_ns;
  }

  mutable std::mutex latency_mutex;
  telemetry::Log2Histogram latency_ns;  // guarded by latency_mutex
};

inline PerfAccumulator& perf_accumulator() {
  static PerfAccumulator acc;
  return acc;
}

/// The process's peak resident set size so far, in MiB (Linux reports
/// ru_maxrss in KiB).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct BenchOptions {
  bool quick = false;
  bool list = false;
  bool has_seed = false;
  bool has_threads = false;
  bool has_shards = false;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::size_t shards = 1;
  std::string json_path;
};

/// Parses the shared bench CLI through the tools' argv grammar
/// (harness::FlagReader), so "--threads 4" and "--threads=4" both work;
/// exits 0 on --help and 2 on a bad flag or value.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  harness::FlagReader args(argc, argv);
  std::string why;  // the reason a value parser gives for refusing
  const auto set = [&](auto parsed, auto& field, bool& has) {
    if (parsed) {
      field = *parsed;
      has = true;
    } else {
      args.fail(why);
    }
  };
  std::string_view v;
  while (args.next()) {
    if (args.flag("--quick")) {
      opts.quick = true;
    } else if (args.flag("--list")) {
      opts.list = true;
    } else if (args.flag("--seed", &v)) {
      set(harness::parse_seed_flag(v, &why), opts.seed, opts.has_seed);
    } else if (args.flag("--threads", &v)) {
      set(harness::parse_threads_flag(v, &why), opts.threads,
          opts.has_threads);
    } else if (args.flag("--shards", &v)) {
      set(harness::parse_shards_flag(v, &why), opts.shards, opts.has_shards);
    } else if (args.flag("--json", &v)) {
      opts.json_path = v;
    } else if (args.flag("--help") || args.flag("-h")) {
      std::printf("usage: %s [--quick] [--seed <u64>] [--threads <T>] "
                  "[--shards <S>] [--json <path>] [--list]\n",
                  argv[0]);
      std::printf("  (every value may also be given as --flag=value)\n");
      std::printf("  --quick        run a reduced sweep (CI smoke)\n");
      std::printf("  --seed <u64>   override the bench's base seed (reruns\n");
      std::printf("                 with the same seed are bit-identical)\n");
      std::printf("  --threads <T>  override the lane count of the bench's\n");
      std::printf("                 parallel-engine rows (results are\n");
      std::printf("                 bit-identical at every T)\n");
      std::printf("  --shards <S>   override the shard count of the bench's\n");
      std::printf("                 shard-engine rows (per-shard Routers,\n");
      std::printf("                 cross-shard lane-batch frames; results\n");
      std::printf("                 are bit-identical at every S)\n");
      std::printf("  --json <path>  write results as a JSON document\n");
      std::printf("  --list         describe what this bench measures, then exit\n");
      std::exit(0);
    } else {
      args.unknown();
    }
  }
  if (!args.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], args.error().c_str());
    std::exit(2);
  }
  return opts;
}

/// One bench run: owns the parsed options and the JSON document that
/// mirrors everything report() prints.  Typical main:
///
///   Bench bench(argc, argv, "t1_triangle", "EXP-T1", "...", "...");
///   const auto sizes = bench.quick() ? kQuickSizes : kSizes;
///   ...
///   bench.report("n", {series...});
///   return bench.finish();
class Bench {
 public:
  Bench(int argc, char** argv, std::string name, std::string exp_id,
        std::string artifact, std::string claim)
      : opts_(parse_options(argc, argv)),
        doc_(harness::make_bench_document(name, exp_id, artifact, claim,
                                          opts_.quick)) {
    if (opts_.list) {
      std::printf("%s  %s\n  artifact: %s\n  claim:    %s\n", name.c_str(),
                  exp_id.c_str(), artifact.c_str(), claim.c_str());
      std::exit(0);
    }
    print_block_header_impl(exp_id, artifact, claim);
    if (opts_.quick) std::printf("(quick mode: reduced sweep)\n");
    if (opts_.has_seed) {
      std::printf("(seed override: %llu)\n",
                  static_cast<unsigned long long>(opts_.seed));
      harness::add_note(doc_, "seed", std::to_string(opts_.seed));
    }
  }

  [[nodiscard]] bool quick() const { return opts_.quick; }

  /// The --seed override when given, else the bench's own default --
  /// thread this into workload construction so a rerun with the same seed
  /// reproduces the exact event streams.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t dflt) const {
    return opts_.has_seed ? opts_.seed : dflt;
  }

  /// The --threads override when given, else the bench's own default lane
  /// count for its parallel-engine rows.
  [[nodiscard]] std::size_t threads_or(std::size_t dflt) const {
    return opts_.has_threads ? opts_.threads : dflt;
  }

  /// The --shards override when given, else the bench's own default shard
  /// count for its shard-engine rows.
  [[nodiscard]] std::size_t shards_or(std::size_t dflt) const {
    return opts_.has_shards ? opts_.shards : dflt;
  }

  /// Picks the full or reduced sweep depending on --quick.
  template <typename T>
  [[nodiscard]] std::vector<T> sweep(std::initializer_list<T> full,
                                     std::initializer_list<T> reduced) const {
    return opts_.quick ? std::vector<T>(reduced) : std::vector<T>(full);
  }

  /// Prints the standard results block and records the sweep in the JSON
  /// document.
  void report(const std::string& x_name,
              const std::vector<harness::Series>& series);

  /// Records a sweep in the JSON document without printing (for data that
  /// already has a bespoke printed form).
  void report_json_only(const std::string& x_name,
                        const std::vector<harness::Series>& series) {
    harness::add_sweep(doc_, x_name, series);
  }

  /// Records a scalar result (census counts, invariant violations, ...).
  void metric(std::string_view key, double value) {
    harness::add_metric(doc_, key, value);
  }

  void note(std::string_view key, std::string_view value) {
    harness::add_note(doc_, key, value);
  }

  /// Writes the JSON document if --json was given; returns main()'s exit
  /// code (1 on write failure).  Folds the process-wide perf aggregate
  /// into the document first, so every BENCH_*.json carries rounds_per_sec,
  /// the per-phase engine time split and the process's peak RSS.
  [[nodiscard]] int finish() {
    const PerfAccumulator& perf = perf_accumulator();
    if (perf.rounds.load(std::memory_order_relaxed) > 0) {
      metric("perf.rounds",
             static_cast<double>(perf.rounds.load(std::memory_order_relaxed)));
      metric("perf.wall_seconds",
             static_cast<double>(
                 perf.wall_ns.load(std::memory_order_relaxed)) *
                 1e-9);
      metric("perf.rounds_per_sec", perf.rounds_per_sec());
      metric("perf.apply_ns", static_cast<double>(perf.apply_ns.load(
                                  std::memory_order_relaxed)));
      metric("perf.react_ns", static_cast<double>(perf.react_ns.load(
                                  std::memory_order_relaxed)));
      metric("perf.route_ns", static_cast<double>(perf.route_ns.load(
                                  std::memory_order_relaxed)));
      metric("perf.receive_ns", static_cast<double>(perf.receive_ns.load(
                                    std::memory_order_relaxed)));
      const telemetry::Log2Histogram latency = perf.latency();
      if (latency.count() > 0) {
        metric("perf.latency_p50_ns", latency.p50());
        metric("perf.latency_p99_ns", latency.p99());
      }
      std::printf("\nperf: %.0f rounds/sec over %llu simulated rounds\n",
                  perf.rounds_per_sec(),
                  static_cast<unsigned long long>(
                      perf.rounds.load(std::memory_order_relaxed)));
      if (latency.count() > 0) {
        std::printf("round latency: p50 %.0f ns, p99 %.0f ns (log2-bucket "
                    "estimate over %llu rounds)\n",
                    latency.p50(), latency.p99(),
                    static_cast<unsigned long long>(latency.count()));
      }
    }
    const double rss_mb = peak_rss_mb();
    metric("perf.peak_rss_mb", rss_mb);
    std::printf("peak RSS: %.1f MB\n", rss_mb);
    if (opts_.json_path.empty()) return 0;
    if (!harness::write_json_file(opts_.json_path, doc_)) {
      std::fprintf(stderr, "failed to write results to %s\n",
                   opts_.json_path.c_str());
      return 1;
    }
    std::printf("\nresults written to %s\n", opts_.json_path.c_str());
    return 0;
  }

 private:
  static void print_block_header_impl(const std::string& exp_id,
                                      const std::string& artifact,
                                      const std::string& claim);

  BenchOptions opts_;
  harness::Json doc_;
};

inline void print_block_header(const std::string& exp_id,
                               const std::string& artifact,
                               const std::string& claim) {
  std::printf("\n");
  std::printf("======================================================================\n");
  std::printf("%s | %s\n", exp_id.c_str(), artifact.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("======================================================================\n");
}

inline void print_results(const std::string& x_name,
                          const std::vector<harness::Series>& series) {
  std::printf("%s", harness::render_results_table(x_name, series).c_str());
  std::printf("%s", harness::ascii_chart(series).c_str());
  for (const auto& s : series) {
    const double slope = harness::log_log_slope(s);
    const char* shape = slope < 0.25   ? "flat: O(1)-like"
                        : slope < 0.75 ? "~sqrt growth"
                        : slope < 1.35 ? "~linear growth"
                                       : "superlinear growth";
    std::printf("log-log slope [%s] = %+.3f  (%s)\n", s.name.c_str(), slope,
                shape);
  }
}

/// A finished bench run: the session (for post-run queries and program
/// censuses) and its timed summary.  The recorder is declared first so it
/// outlives the simulator that reports to it.
struct SessionRun {
  std::unique_ptr<telemetry::TelemetryRecorder> recorder;
  detect::Session session;
  harness::RunSummary summary;
};

/// Called after every round of a per-round drive, drain rounds included.
using RoundHook = std::function<void(const detect::Session&)>;

/// The one way a bench builds and drives a run.  Opens a Session from
/// `opts` (detector spec, scenario spec, engine settings in opts.sim) or,
/// when `workload` is given, over that injected workload of `nodes` nodes
/// (a scripted adversary whose metadata the bench reads, or one the
/// scenario registry does not name; opts.scenario stays empty).  Drives
/// it with Session::run(), or round by round calling `each_round` after
/// every round when a hook is given; times the drive and folds the
/// summary into the process-wide perf aggregate.  Dies loudly on a bad
/// spec: a bench silently falling back to a different workload would fake
/// the measurement.
inline SessionRun run_session(detect::SessionOptions opts,
                              std::unique_ptr<net::Workload> workload,
                              std::size_t nodes,
                              const RoundHook& each_round = {}) {
  // Histogram-only telemetry: O(lanes) memory whatever the round count,
  // feeding the latency_p50/p99 percentiles of the bench JSON.
  auto recorder = std::make_unique<telemetry::TelemetryRecorder>(
      telemetry::RecorderOptions{
          .timing = true, .keep_rounds = false, .keep_spans = false});
  opts.sim.collect_phase_timings = true;
  opts.sim.telemetry = recorder.get();
  const std::size_t max_rounds = opts.max_rounds;
  const std::string what = opts.detector + " on " +
                           (workload ? "a scripted workload" : opts.scenario);
  std::string error;
  std::optional<detect::Session> session =
      workload ? detect::Session::open(std::move(opts), std::move(workload),
                                       nodes, &error)
               : detect::Session::open(std::move(opts), &error);
  if (!session) {
    std::fprintf(stderr, "bench: cannot run %s: %s\n", what.c_str(),
                 error.c_str());
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  if (each_round) {
    // Session::run()'s loop, with the hook after every round.
    for (std::size_t r = 0; r < max_rounds && session->advance(); ++r) {
      each_round(*session);
    }
    for (std::size_t r = 0; r < net::kDrainCap && !session->settled(); ++r) {
      session->step({});
      each_round(*session);
    }
  } else {
    session->run();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  harness::RunSummary s = harness::summarize_timed(session->sim(), wall);
  s.latency_p50_ns = recorder->round_latency_ns().p50();
  s.latency_p99_ns = recorder->round_latency_ns().p99();
  perf_accumulator().add(s);
  perf_accumulator().add_latency(recorder->round_latency_ns());
  return SessionRun{std::move(recorder), std::move(*session), s};
}

/// run_session over opts.scenario.
inline SessionRun run_session(detect::SessionOptions opts,
                              const RoundHook& each_round = {}) {
  return run_session(std::move(opts), nullptr, 0, each_round);
}

/// A RoundHook keeping in `peak` the longest node queue seen after any
/// round: the local work a constant-rounds bound must not hide.
inline RoundHook track_queue_peak(std::size_t& peak) {
  return [&peak](const detect::Session& session) {
    for (NodeId v = 0; v < session.nodes(); ++v) {
      peak = std::max(peak, session.sim().node(v).queue_length());
    }
  };
}

/// One curve of a sweep, as data: its label, the detector spec that runs
/// it, and its scenario spec at each sweep point.  A point reproduces as
/// `dynsub_run --scenario '<scenario(p)>' --detector '<detector>'`.
struct Curve {
  std::string label;
  std::string detector;
  std::function<std::string(std::size_t)> scenario;
};

/// Reads a finished session on its worker, before the session goes.
using Inspect = std::function<void(std::size_t curve, std::size_t point,
                                   const detect::Session&)>;

/// The per-round hook of one (curve, point) run; an empty hook runs the
/// whole Session::run().
using HookFor = std::function<RoundHook(std::size_t curve, std::size_t point)>;

/// Runs every curve at every sweep point on the harness pool, each point
/// its own Session, and returns the summaries as [curve][point].
inline std::vector<std::vector<harness::RunSummary>> run_sweep(
    const std::vector<std::size_t>& points, const std::vector<Curve>& curves,
    const Inspect& inspect = {}, const HookFor& hook_for = {}) {
  std::vector<std::vector<harness::RunSummary>> out(
      curves.size(), std::vector<harness::RunSummary>(points.size()));
  harness::parallel_for(curves.size() * points.size(), [&](std::size_t i) {
    const std::size_t c = i % curves.size();
    const std::size_t p = i / curves.size();
    const SessionRun run = run_session(
        {.detector = curves[c].detector,
         .scenario = curves[c].scenario(points[p])},
        hook_for ? hook_for(c, p) : RoundHook{});
    if (inspect) inspect(c, p, run.session);
    out[c][p] = run.summary;
  });
  return out;
}

/// One report() series per curve: y = amortized rounds per change at
/// x = x_of(point), or at x = the point itself when x_of is empty.
inline std::vector<harness::Series> amortized_series(
    const std::vector<std::size_t>& points, const std::vector<Curve>& curves,
    const std::vector<std::vector<harness::RunSummary>>& runs,
    const std::function<double(std::size_t)>& x_of = {}) {
  std::vector<harness::Series> series;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    harness::Series s{curves[c].label, {}};
    for (std::size_t p = 0; p < points.size(); ++p) {
      const double x =
          x_of ? x_of(points[p]) : static_cast<double>(points[p]);
      s.points.push_back({x, runs[c][p].amortized});
    }
    series.push_back(std::move(s));
  }
  return series;
}

/// The random-churn scenario of the size sweeps: at most 4 changes per
/// round, a constant change rate, which is the flat-in-n demonstration.
inline std::string random_churn_spec(std::size_t n, std::size_t target,
                                     const std::string& rounds,
                                     std::uint64_t seed) {
  return "churn(n=" + std::to_string(n) + ", target=" +
         std::to_string(target) + ", max=4, rounds=" + rounds +
         ", seed=" + std::to_string(seed) + ")";
}

/// The session-churn scenario of the size sweeps (t1, t6, t7): session and
/// offline lengths scale with n, so the expected number of topology
/// changes per round stays constant across sizes.
inline std::string session_churn_spec(std::size_t n, const std::string& rounds,
                                      std::uint64_t seed) {
  const double scale = static_cast<double>(n) / 32.0;
  return "sessions(n=" + std::to_string(n) +
         ", smin=" + format_shortest(4.0 * scale) +
         ", offline=" + format_shortest(6.0 * scale) + ", rounds=" + rounds +
         ", seed=" + std::to_string(seed) + ")";
}

/// A theory curve y = f(x) over the same x values, for shape comparison.
inline harness::Series theory_series(const std::string& label,
                                     const harness::Series& like,
                                     const std::function<double(double)>& f) {
  harness::Series s{label, {}};
  for (const auto& pt : like.points) s.points.push_back({pt.x, f(pt.x)});
  return s;
}

inline void Bench::print_block_header_impl(const std::string& exp_id,
                                           const std::string& artifact,
                                           const std::string& claim) {
  print_block_header(exp_id, artifact, claim);
}

inline void Bench::report(const std::string& x_name,
                          const std::vector<harness::Series>& series) {
  print_results(x_name, series);
  harness::add_sweep(doc_, x_name, series);
}

}  // namespace dynsub::bench
