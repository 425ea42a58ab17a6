// Shared plumbing for the experiment benches.
//
// Every bench regenerates one artifact of the paper (a theorem's complexity
// curve, a figure's construction, or an ablation) and prints a standard
// block: the claim, a results table, an ASCII chart of the series, and the
// log-log slope of each curve so the growth shape is a number.  Sweep
// points are independent simulations and run on a thread pool.
//
// All benches speak the same CLI:
//   --quick         reduced sweep (CI smoke / fast local iteration)
//   --json <path>   also write the results as a BENCH_<name>.json document
//                   (schema in harness/json.hpp); bench/run_all.sh drives
//                   every binary this way to feed the perf trajectory
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/format.hpp"
#include "detect/registry.hpp"
#include "harness/engine_flags.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "scenario/registry.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/recorder.hpp"

namespace dynsub::bench {

/// Process-wide perf aggregate across every run_experiment() call (sweep
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

/// Parses the shared bench CLI; exits on --help or an unknown flag.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  // Engine-flag values share their checks with the tools
  // (harness/engine_flags.hpp); a bad value exits 2.
  std::string error;
  auto take = [&](auto parsed, auto& field, bool& has) {
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      std::exit(2);
    }
    field = *parsed;
    has = true;
  };
  auto parse_seed = [&](std::string_view text) {
    take(harness::parse_seed_flag(text, &error), opts.seed, opts.has_seed);
  };
  auto parse_threads = [&](std::string_view text) {
    take(harness::parse_threads_flag(text, &error), opts.threads,
         opts.has_threads);
  };
  auto parse_shards = [&](std::string_view text) {
    take(harness::parse_shards_flag(text, &error), opts.shards,
         opts.has_shards);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--list") {
      opts.list = true;
    } else if (arg == "--shards") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --shards requires a value argument\n",
                     argv[0]);
        std::exit(2);
      }
      parse_shards(argv[++i]);
    } else if (arg.rfind("--shards=", 0) == 0) {
      parse_shards(arg.substr(9));
    } else if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --threads requires a value argument\n",
                     argv[0]);
        std::exit(2);
      }
      parse_threads(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      parse_threads(arg.substr(10));
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --json requires a path argument\n", argv[0]);
        std::exit(2);
      }
      opts.json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      opts.json_path = std::string(arg.substr(7));
    } else if (arg == "--seed") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --seed requires a value argument\n",
                     argv[0]);
        std::exit(2);
      }
      parse_seed(argv[++i]);
    } else if (arg.rfind("--seed=", 0) == 0) {
      parse_seed(arg.substr(7));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--quick] [--seed <u64>] [--threads <T>] "
                  "[--json <path>] [--list]\n",
                  argv[0]);
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
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                   argv[0], std::string(arg).c_str());
      std::exit(2);
    }
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

/// Runs `workload` to completion (plus drain) over an algorithm built by
/// `factory`; returns the run summary with wall-clock + per-phase perf
/// filled in (and folded into the process-wide perf aggregate).
inline harness::RunSummary run_experiment(std::size_t n,
                                          const net::NodeFactory& factory,
                                          net::Workload& workload,
                                          std::size_t max_rounds = 10000000,
                                          std::size_t threads = 0,
                                          const net::FaultPlan& faults = {},
                                          std::size_t shards = 1) {
  // Histogram-only telemetry: O(lanes) memory whatever the round count,
  // feeding the latency_p50/p99 percentiles of the bench JSON.
  telemetry::TelemetryRecorder rec(telemetry::RecorderOptions{
      .timing = true, .keep_rounds = false, .keep_spans = false});
  net::Simulator sim(n, factory, {.sparse_rounds = true,
                                  .collect_phase_timings = true,
                                  .threads = threads,
                                  .shards = shards,
                                  .faults = faults,
                                  .telemetry = &rec});
  const auto start = std::chrono::steady_clock::now();
  net::run_workload(sim, workload, max_rounds);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  harness::RunSummary s = harness::summarize_timed(sim, wall);
  s.latency_p50_ns = rec.round_latency_ns().p50();
  s.latency_p99_ns = rec.round_latency_ns().p99();
  perf_accumulator().add(s);
  perf_accumulator().add_latency(rec.round_latency_ns());
  return s;
}

/// For benches that need the simulator afterwards (coverage queries,
/// prev-graph checks): drives `workload` on a caller-owned `sim`, timing
/// the run and folding it into the process-wide perf aggregate.  Construct
/// the simulator with `.collect_phase_timings = true` to get the per-phase
/// split.
inline harness::RunSummary run_timed(net::Simulator& sim,
                                     net::Workload& workload,
                                     std::size_t max_rounds = 10000000) {
  const auto start = std::chrono::steady_clock::now();
  net::run_workload(sim, workload, max_rounds);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  harness::RunSummary s = harness::summarize_timed(sim, wall);
  perf_accumulator().add(s);
  return s;
}

/// Builds a registry scenario or dies loudly: a bench silently falling back
/// to a different workload would fake the measurement.
inline scenario::ScenarioBuild build_scenario_or_die(
    const std::string& spec,
    const scenario::ScenarioOptions& opts = scenario::ScenarioOptions{}) {
  std::string error;
  auto built = scenario::build_scenario(spec, opts, &error);
  if (!built) {
    std::fprintf(stderr, "bench: bad scenario '%s': %s\n", spec.c_str(),
                 error.c_str());
    std::exit(1);
  }
  return std::move(*built);
}

/// Builds a registry detector or dies loudly -- the bench-side twin of
/// build_scenario_or_die, so a bench row names its algorithm by the same
/// spec string `dynsub_run --detector` accepts and the two can never
/// drift apart.
inline std::unique_ptr<detect::Detector> build_detector_or_die(
    const std::string& spec) {
  std::string error;
  auto detector = detect::build_detector(spec, &error);
  if (detector == nullptr) {
    std::fprintf(stderr, "bench: bad detector '%s': %s\n", spec.c_str(),
                 error.c_str());
    std::exit(1);
  }
  return detector;
}

/// The node factory of a registry detector (build_detector_or_die).
inline net::NodeFactory detector_factory_or_die(const std::string& spec) {
  return build_detector_or_die(spec)->factory();
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
