// perfbench -- one repetition of one benchmark workload, driven through the
// library's public API only: the scenario and detector registries,
// net::Simulator, detect::Session and serve::Server.  run.py calls this
// binary several times per benchmark run (one process per repetition, so
// setup time is measured from a fresh process and peak RSS is per
// repetition) and turns the repetitions into medians.
//
//   perfbench --workload churn_1m|region_3hop|serve_100k --seed S
//             [--mode plain|traced|lanes] [--audit] [--setup-only]
//
// It prints one JSON object on stdout; a value that is not finite prints as
// null.  The lanes mode runs the engine at min(4, hardware threads) lanes.
// Every time is taken from outside the library: timers around the calls
// into each layer, plus the engine's own phase_timings() and telemetry sink
// in the traced modes.  Nothing here instruments src/.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "harness/json.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "scenario/registry.hpp"
#include "serve/clock.hpp"
#include "serve/server.hpp"
#include "telemetry/recorder.hpp"

namespace {

using namespace dynsub;
using harness::Json;
using SteadyClock = std::chrono::steady_clock;

const SteadyClock::time_point kProcessStart = SteadyClock::now();

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

long involuntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

/// (steal, total) jiffies of all CPUs from the first line of /proc/stat.
std::pair<double, double> cpu_steal_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Current resident set size in bytes (/proc/self/statm, second field).
double current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

/// Linear-interpolated quantile of an unsorted sample (NaN when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// FNV-1a over 64-bit words: the input fingerprint.
struct Fingerprint {
  std::uint64_t hash = 14695981039346656037ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

Json numbers(const std::vector<double>& v) {
  Json list = Json::array();
  for (const double x : v) list.push_back(Json::number(x));
  return list;
}

void print(const Json& out) { std::printf("%s\n", out.dump(0).c_str()); }

Json count(std::uint64_t v) { return Json::number(static_cast<double>(v)); }

/// The engine's phase_timings() split between two snapshots, in seconds.
void emit_phases(Json& out, const net::PhaseTimings& from,
                 const net::PhaseTimings& to) {
  const auto s = [](std::uint64_t ns) {
    return Json::number(static_cast<double>(ns) / 1e9);
  };
  out["apply_s"] = s(to.apply_ns - from.apply_ns);
  out["react_s"] = s(to.react_ns - from.react_ns);
  out["route_s"] = s(to.route_ns - from.route_ns);
  out["receive_s"] = s(to.receive_ns - from.receive_ns);
}

/// Forwards a registry workload, fingerprinting every batch of the first
/// `fingerprint_rounds` rounds (0 = all) and summing the time spent in
/// next_round when timed.  With a log clock it also notes each call's time
/// and batch size, so the serve run can tell which changes fell inside its
/// window without touching the engine from another thread.
class FingerprintWorkload final : public net::Workload {
 public:
  struct Call {
    std::uint64_t at_ns;
    std::uint64_t changes;
  };

  FingerprintWorkload(std::unique_ptr<net::Workload> inner, bool timed,
                      std::size_t fingerprint_rounds = 0,
                      serve::Clock* log_clock = nullptr)
      : inner_(std::move(inner)),
        timed_(timed),
        fingerprint_rounds_(fingerprint_rounds),
        log_clock_(log_clock) {}

  [[nodiscard]] std::vector<EdgeEvent> next_round(
      const net::WorkloadObservation& obs) override {
    const auto t0 = timed_ ? SteadyClock::now() : SteadyClock::time_point{};
    std::vector<EdgeEvent> batch = inner_->next_round(obs);
    if (timed_) next_round_s_ += seconds_between(t0, SteadyClock::now());
    ++rounds_;
    emitted_ += batch.size();
    if (fingerprint_rounds_ == 0 || rounds_ <= fingerprint_rounds_) {
      fingerprint_.add(obs.next_round);
      for (const EdgeEvent& ev : batch) {
        fingerprint_.add((ev.edge.key() << 1) |
                         (ev.kind == EventKind::kDelete ? 1 : 0));
      }
      fingerprinted_changes_ += batch.size();
    }
    if (log_clock_ != nullptr) {
      calls_.push_back({log_clock_->now_ns(), batch.size()});
    }
    // The engine is parked between rounds while it asks for the next
    // batch, so the previous round's active-set sizes are safe to read
    // here even when the engine runs on another thread.
    if (counted_ != nullptr && obs.next_round > 2) count_round();
    return batch;
  }

  /// Accumulates last_round_active/stepped of every round after round 1 of
  /// `sim`; call count_round() once more after the last round.
  void count_rounds_of(const net::Simulator* sim) { counted_ = sim; }
  void count_round() {
    active_ += counted_->last_round_active();
    stepped_ += counted_->last_round_stepped();
  }
  [[nodiscard]] std::uint64_t active() const { return active_; }
  [[nodiscard]] std::uint64_t stepped() const { return stepped_; }

  [[nodiscard]] bool finished() const override { return inner_->finished(); }

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_.hash; }
  [[nodiscard]] std::uint64_t fingerprinted_changes() const {
    return fingerprinted_changes_;
  }
  [[nodiscard]] double next_round_s() const { return next_round_s_; }
  [[nodiscard]] const std::vector<Call>& calls() const { return calls_; }

 private:
  std::unique_ptr<net::Workload> inner_;
  bool timed_;
  std::size_t fingerprint_rounds_;
  serve::Clock* log_clock_;
  std::size_t rounds_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t fingerprinted_changes_ = 0;
  Fingerprint fingerprint_;
  double next_round_s_ = 0.0;
  std::vector<Call> calls_;
  const net::Simulator* counted_ = nullptr;
  std::uint64_t active_ = 0;
  std::uint64_t stepped_ = 0;
};

enum class Mode { kPlain, kTraced, kLanes };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  Mode mode = Mode::kPlain;
  bool audit = false;
  bool setup_only = false;
};

/// Engine lanes of the lanes mode: min(4, hardware threads).
std::size_t lane_count() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::unique_ptr<detect::Detector> detector_or_die(const std::string& spec) {
  std::string error;
  auto det = detect::build_detector(spec, &error);
  if (!det) die("bad detector spec '" + spec + "': " + error);
  return det;
}

scenario::ScenarioBuild scenario_or_die(const std::string& spec) {
  std::string error;
  auto built = scenario::build_scenario(spec, {}, &error);
  if (!built) die("bad scenario spec '" + spec + "': " + error);
  return std::move(*built);
}

/// Per-lane busy time (react + receive spans) and barrier wait summed over
/// a recorder's histograms; differences of two snapshots give a window.
struct LaneSnapshot {
  std::vector<double> busy_s;
  double barrier_s = 0.0;
};

LaneSnapshot lane_snapshot(const telemetry::TelemetryRecorder& rec) {
  LaneSnapshot s;
  for (std::size_t l = 0; l < rec.lanes(); ++l) {
    const double busy =
        static_cast<double>(rec.phase_ns(l, telemetry::Phase::kReact).sum() +
                            rec.phase_ns(l, telemetry::Phase::kReceive).sum());
    s.busy_s.push_back(busy / 1e9);
    s.barrier_s += static_cast<double>(
                       rec.phase_ns(l, telemetry::Phase::kBarrier).sum()) /
                   1e9;
  }
  return s;
}

void emit_lanes(Json& out, const LaneSnapshot& from,
                const LaneSnapshot& to) {
  double sum = 0.0;
  double max = 0.0;
  for (std::size_t l = 0; l < to.busy_s.size(); ++l) {
    const double b = to.busy_s[l] - (l < from.busy_s.size() ? from.busy_s[l]
                                                           : 0.0);
    sum += b;
    max = std::max(max, b);
  }
  const double mean = sum / static_cast<double>(to.busy_s.size());
  out["lanes_busy_max_over_mean"] = Json::number(max / mean);
  out["lanes_barrier_wait_s"] = Json::number(to.barrier_s - from.barrier_s);
}

/// Times `count` uniform queries and listings at nodes that have edges in
/// the final snapshot (the detector's own query shapes).  Returns the
/// median query and listing latency in ns.
std::pair<double, double> time_final_queries(const detect::Detector& det,
                                             const net::Simulator& sim,
                                             std::uint64_t seed,
                                             std::size_t count) {
  const auto& g = sim.graph();
  if (g.edge_count() == 0) {
    const double none = std::numeric_limits<double>::quiet_NaN();
    return {none, none};
  }
  const bool triangles = det.supports_query(detect::QueryKind::kTriangle);
  const detect::QueryKind list_kind =
      det.supports_list(detect::QueryKind::kTriangle)
          ? detect::QueryKind::kTriangle
          : detect::QueryKind::kCycle4;
  Rng rng(seed ^ 0x51CEDULL);
  const auto n = static_cast<std::uint64_t>(sim.node_count());
  std::vector<double> query_ns;
  std::vector<double> list_ns;
  for (std::size_t i = 0; i < count; ++i) {
    const Edge e = (g.edges().begin() +
                    static_cast<std::ptrdiff_t>(rng.next_below(g.edge_count())))
                       ->first;
    const NodeId v = e.lo();
    NodeId other = v;
    while (other == v || other == e.hi()) {
      other = static_cast<NodeId>(rng.next_below(n));
    }
    detect::Query q = detect::EdgeQuery{e};
    if (triangles) q = detect::TriangleQuery{e.hi(), other};
    auto t0 = SteadyClock::now();
    (void)det.query(sim, v, q);
    auto t1 = SteadyClock::now();
    query_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (i % 4 == 0) {
      t0 = SteadyClock::now();
      (void)det.list(sim, v, list_kind);
      t1 = SteadyClock::now();
      list_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
  return {quantile(query_ns, 0.5), quantile(list_ns, 0.5)};
}

/// Median per-round time plus the highest percentile with at least ten
/// rounds beyond it, q = 1 - 10 / rounds (and which percentile that was).
void emit_step_percentiles(Json& out, const std::vector<double>& us) {
  const double q =
      std::max(0.5, 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(
                                     us.size(), 1)));
  out["step_us_p50"] = Json::number(quantile(us, 0.5));
  out["step_us_tail"] = Json::number(quantile(us, q));
  out["step_tail_q"] = Json::number(q);
  out["step_rounds"] = Json::number(static_cast<double>(us.size()));
}

// --------------------------------------------------------------------------
// churn_1m and region_3hop: a batch loop over net::Simulator.  Round 1 is
// part of setup (it is the dense bootstrap round that steps every node);
// the timed window runs from round 2 through the drain.
// --------------------------------------------------------------------------

struct EngineWorkload {
  std::string scenario;
  std::string detector;
  bool track_prev_graph;
};

// Both engine workloads use a fixed batch size (min = max).  With sizes
// drawn from [0, max] a run's total work varies by about 1/sqrt(3 * rounds)
// from seed to seed, and each answer-latency quantile lands on one round
// whose latency scales with that round's random size: the churn_1m p95
// spread 11% over ten seeds at sizes in [4000, 5000].  region_3hop (like
// serve_100k) inserts its whole target edge set in round 1, so the timed
// window churns a graph at working density instead of crossing a growth
// phase, and its batches are small enough that the node programs keep
// pace: the drain is a few rounds, where at max=300 it was 150-190 rounds
// whose seed-dependent length set amortized_rounds.
EngineWorkload engine_workload(const Options& o) {
  const std::string seed = std::to_string(o.seed);
  if (o.workload == "churn_1m") {
    return {"churn(n=1000000, target=2000000, min=4500, max=4500, "
            "rounds=30, seed=" + seed + ")",
            "triangle", false};
  }
  return {"remap(seq(churn(n=5000, target=15000, min=15000, max=15000, "
          "rounds=1, seed=" + seed + "), churn(n=5000, target=15000, min=40, "
          "max=40, rounds=250, seed=" + seed + ")), offset=95000)",
          "robust3hop", true};
}

int run_engine(const Options& o) {
  const EngineWorkload w = engine_workload(o);
  const bool timed = o.mode != Mode::kPlain;
  auto det = detector_or_die(w.detector);
  scenario::ScenarioBuild built = scenario_or_die(w.scenario);
  FingerprintWorkload workload(std::move(built.workload), timed);

  telemetry::TelemetryRecorder recorder(
      {.timing = true, .keep_rounds = false, .keep_spans = false});
  net::SimulatorConfig cfg;
  cfg.track_prev_graph = w.track_prev_graph;
  cfg.collect_phase_timings = timed;
  if (o.mode == Mode::kLanes) {
    cfg.threads = lane_count();
    cfg.telemetry = &recorder;
  }

  const double rss_before = current_rss_bytes();
  const auto t_construct = SteadyClock::now();
  auto sim =
      std::make_unique<net::Simulator>(built.nodes, det->factory(), cfg);
  const auto t_constructed = SteadyClock::now();
  const double rss_after = current_rss_bytes();

  SteadyClock::time_point t_bootstrap;
  {
    const net::WorkloadObservation obs{sim->graph(), sim->round() + 1,
                                       sim->all_consistent()};
    const std::vector<EdgeEvent> events = workload.next_round(obs);
    t_bootstrap = SteadyClock::now();
    sim->step(events);
  }
  const auto t_setup = SteadyClock::now();

  Json out = Json::object();
  out["workload"] = Json::string(o.workload);
  out["setup_s"] = Json::number(seconds_between(kProcessStart, t_setup));
  if (o.setup_only) {
    print(out);
    return 0;
  }

  // Window baselines: the engine's cumulative counters after round 1.
  const net::PhaseTimings phases0 = sim->phase_timings();
  const std::uint64_t messages0 = sim->metrics().messages();
  const std::uint64_t bits0 = sim->metrics().payload_bits();
  const LaneSnapshot lanes0 = lane_snapshot(recorder);
  const double next_round0 = workload.next_round_s();
  const std::uint64_t emitted0 = workload.emitted();

  // Per change round: its batch size and its answer latency.  A batch is
  // due when the previous round returns and answered when its own round
  // returns; run.py turns these into change-weighted quantiles.
  std::vector<double> round_changes;
  std::vector<double> round_latency_us;
  std::vector<double> step_us;
  std::uint64_t applied = 0;
  std::uint64_t active = 0;
  std::uint64_t stepped = 0;
  double step_s = 0.0;

  const double cpu0 = process_cpu_s();
  const auto t_window = SteadyClock::now();
  auto t_prev = t_window;
  constexpr std::size_t kDrainCap = 1000;
  std::size_t drained = 0;
  while (!workload.finished() ||
         (!sim->all_consistent() && drained < kDrainCap)) {
    std::vector<EdgeEvent> events;
    if (!workload.finished()) {
      const net::WorkloadObservation obs{sim->graph(), sim->round() + 1,
                                         sim->all_consistent()};
      events = workload.next_round(obs);
    } else {
      ++drained;
    }
    const auto t0 = timed ? SteadyClock::now() : SteadyClock::time_point{};
    const net::RoundResult r = sim->step(events);
    const auto t1 = SteadyClock::now();
    applied += r.changes;
    if (r.changes > 0) {
      round_changes.push_back(static_cast<double>(r.changes));
      round_latency_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t_prev).count());
    }
    t_prev = t1;
    if (timed) {
      const double s = seconds_between(t0, t1);
      step_s += s;
      step_us.push_back(s * 1e6);
      active += sim->last_round_active();
      stepped += sim->last_round_stepped();
    }
  }
  const auto t_end = SteadyClock::now();
  const double cpu = process_cpu_s() - cpu0;
  const double window = seconds_between(t_window, t_end);
  const double rss_peak = peak_rss_mb();
  const std::uint64_t emitted = workload.emitted() - emitted0;

  out["construct_s"] =
      Json::number(seconds_between(t_construct, t_constructed));
  out["bootstrap_s"] = Json::number(seconds_between(t_bootstrap, t_setup));
  out["bytes_per_node"] = Json::number(
      (rss_after - rss_before) / static_cast<double>(built.nodes));
  out["window_s"] = Json::number(window);
  out["cpu_s"] = Json::number(cpu);
  out["due"] = count(emitted);
  out["ok"] = count(applied);
  out["changes_window"] = count(applied);
  out["changes_total"] = count(workload.emitted());
  out["fingerprint"] = Json::string(hex(workload.fingerprint()));
  out["rounds"] = count(sim->round() - 1);
  out["amortized"] = Json::number(sim->metrics().amortized());
  out["peak_rss_mb"] = Json::number(rss_peak);
  out["round_changes"] = numbers(round_changes);
  out["round_latency_us"] = numbers(round_latency_us);
  out["settled"] = count(sim->all_consistent() ? 1 : 0);
  out["edges"] = count(sim->graph().edge_count());
  out["metrics_changes"] = count(sim->metrics().changes());

  if (timed) {
    out["next_round_s"] = Json::number(workload.next_round_s() - next_round0);
    out["step_s"] = Json::number(step_s);
    emit_step_percentiles(out, step_us);
    emit_phases(out, phases0, sim->phase_timings());
    out["active_nodes"] = count(active);
    out["stepped_nodes"] = count(stepped);
    out["messages"] = count(sim->metrics().messages() - messages0);
    out["payload_bits"] = count(sim->metrics().payload_bits() - bits0);
    const auto [query_ns, list_ns] =
        time_final_queries(*det, *sim, o.seed, 20000);
    out["query_ns_p50"] = Json::number(query_ns);
    out["list_ns_p50"] = Json::number(list_ns);
  }
  if (o.mode == Mode::kLanes) emit_lanes(out, lanes0, lane_snapshot(recorder));

  if (o.audit) {
    const auto t0 = SteadyClock::now();
    const std::optional<std::string> failure = det->audit(*sim);
    out["audit_s"] = Json::number(seconds_between(t0, SteadyClock::now()));
    out["audit"] = Json::string(failure ? "fail: " + *failure : "pass");
  }
  print(out);
  return 0;
}

// --------------------------------------------------------------------------
// serve_100k: a threaded serve::Server over live churn, fed by one open-loop
// client (this thread) at a fixed rate.  Due times are stamped on the
// server's own WallClock, so answer_ns - due is a difference on one clock.
// --------------------------------------------------------------------------

/// Starts the server's engine thread on every CPU but the last one, and
/// then moves the calling (client) thread onto that last CPU alone.  The
/// spinning client and the engine then never share a CPU, which the
/// scheduler otherwise allows for seconds at a time: each thread gets half
/// a CPU in 4 ms slices, and answer latency jumps to milliseconds.
void start_apart(serve::Server& server) {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
    server.start();
    return;
  }
  int last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(last, &all)) --last;
  cpu_set_t engine = all;
  CPU_CLR(last, &engine);
  cpu_set_t client;
  CPU_ZERO(&client);
  CPU_SET(last, &client);
  pthread_setaffinity_np(pthread_self(), sizeof engine, &engine);
  server.start();
  pthread_setaffinity_np(pthread_self(), sizeof client, &client);
}

constexpr double kQueryRate = 20000.0;       // queries per second
constexpr double kWindowS = 3.0;             // seconds of scheduled queries
constexpr std::uint64_t kLeadNs = 20000000;  // engine warm-up before query 1
constexpr std::size_t kServeFingerprintRounds = 1000;

int run_serve(const Options& o) {
  serve::WallClock clock;
  const std::string seed = std::to_string(o.seed);
  scenario::ScenarioBuild built = scenario_or_die(
      "seq(churn(n=100000, target=20000, min=20000, max=20000, rounds=1, "
      "seed=" + seed + "), churn(n=100000, target=20000, max=40, "
      "rounds=100000000, seed=" + seed + "))");
  auto workload_owned = std::make_unique<FingerprintWorkload>(
      std::move(built.workload), o.mode != Mode::kPlain,
      kServeFingerprintRounds, &clock);
  FingerprintWorkload& workload = *workload_owned;

  telemetry::TelemetryRecorder recorder(
      {.timing = true, .keep_rounds = false, .keep_spans = false});
  detect::SessionOptions sopts;
  sopts.detector = "triangle";
  sopts.sim.track_prev_graph = false;
  sopts.sim.collect_phase_timings = o.mode != Mode::kPlain;
  if (o.mode == Mode::kLanes) {
    sopts.sim.threads = lane_count();
    sopts.sim.telemetry = &recorder;
  }
  std::string error;
  const std::size_t n = built.nodes;
  const double rss_before = current_rss_bytes();
  const auto t_construct = SteadyClock::now();
  auto opened = detect::Session::open(std::move(sopts),
                                      std::move(workload_owned), n, &error);
  if (!opened) die("session: " + error);
  const auto t_constructed = SteadyClock::now();
  const double rss_after = current_rss_bytes();
  detect::Session& session = *opened;
  session.advance();  // round 1: the dense bootstrap round
  const auto t_setup = SteadyClock::now();

  Json out = Json::object();
  out["workload"] = Json::string(o.workload);
  out["setup_s"] = Json::number(seconds_between(kProcessStart, t_setup));
  if (o.setup_only) {
    print(out);
    return 0;
  }

  // The query schedule: 50% triangle membership, 30% edge, 20% list.
  const auto due_count =
      static_cast<std::size_t>(std::llround(kQueryRate * kWindowS));
  const auto period_ns = static_cast<std::uint64_t>(1e9 / kQueryRate);
  std::vector<serve::Request> schedule(due_count);
  {
    Rng rng(o.seed * 0x9E3779B97F4A7C15ULL + 0x5E27);
    Fingerprint fp;
    for (serve::Request& req : schedule) {
      const auto pick = rng.next_below(100);
      req.node = static_cast<NodeId>(rng.next_below(n));
      auto u = static_cast<NodeId>(rng.next_below(n - 1));
      if (u >= req.node) ++u;
      auto w = static_cast<NodeId>(rng.next_below(n - 2));
      if (w >= std::min(req.node, u)) ++w;
      if (w >= std::max(req.node, u)) ++w;
      if (pick < 50) {
        req.kind = serve::RequestKind::kQuery;
        req.query = detect::TriangleQuery{u, w};
      } else if (pick < 80) {
        req.kind = serve::RequestKind::kQuery;
        req.query = detect::EdgeQuery{Edge{req.node, u}};
      } else {
        req.kind = serve::RequestKind::kList;
        req.list_kind = detect::QueryKind::kTriangle;
      }
      fp.add((pick << 48) ^ (std::uint64_t{req.node} << 24) ^ u ^
             (std::uint64_t{w} << 40));
    }
    out["query_fingerprint"] = Json::string(hex(fp.hash));
  }

  const double next_round0 = workload.next_round_s();
  const net::PhaseTimings phases0 = session.sim().phase_timings();
  const std::uint64_t messages0 = session.sim().metrics().messages();
  const std::uint64_t bits0 = session.sim().metrics().payload_bits();
  const LaneSnapshot lanes0 = lane_snapshot(recorder);
  if (o.mode != Mode::kPlain) workload.count_rounds_of(&session.sim());
  serve::ServeConfig cfg;
  cfg.queue.capacity = 1024;
  cfg.queue.policy = serve::OverflowPolicy::kShed;
  serve::Server server(session, clock, cfg);

  std::vector<serve::Response> responses;
  responses.reserve(due_count + 16);
  std::vector<double> late_us(due_count);
  std::vector<double> submit_us(due_count);

  start_apart(server);
  const std::uint64_t start_ns = clock.now_ns() + kLeadNs;
  while (clock.now_ns() < start_ns) {
  }
  const double cpu0 = process_cpu_s();
  const double client_cpu0 = thread_cpu_s();
  const long switches0 = involuntary_switches();
  const auto steal0 = cpu_steal_jiffies();
  // late_us is the lateness the client caused itself: from the later of the
  // due time and the return of its previous call into the server, to the
  // submit.  Time spent inside Server::submit and take_responses is the
  // program's; it reaches the answer latency through the due time instead.
  std::uint64_t free_ns = clock.now_ns();
  for (std::size_t i = 0; i < due_count; ++i) {
    if (i % 256 == 0) {
      std::vector<serve::Response> taken = server.take_responses();
      free_ns = clock.now_ns();
      for (serve::Response& r : taken) responses.push_back(std::move(r));
    }
    const std::uint64_t due = start_ns + i * period_ns;
    std::uint64_t now = clock.now_ns();
    while (now < due) now = clock.now_ns();  // spin: no sleep lateness
    std::optional<serve::Response> refused = server.submit(schedule[i]);
    const std::uint64_t after = clock.now_ns();
    late_us[i] = static_cast<double>(now - std::max(due, free_ns)) / 1e3;
    submit_us[i] = static_cast<double>(after - now) / 1e3;
    free_ns = after;
    if (refused) responses.push_back(std::move(*refused));
  }
  // Every accepted query is answered at a later barrier; wait for them.
  const auto wait_until = SteadyClock::now() + std::chrono::seconds(10);
  while (responses.size() < due_count && SteadyClock::now() < wait_until) {
    for (serve::Response& r : server.take_responses()) {
      responses.push_back(std::move(r));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double cpu = process_cpu_s() - cpu0;
  const double client_cpu = thread_cpu_s() - client_cpu0;
  const long switches = involuntary_switches() - switches0;
  const auto steal1 = cpu_steal_jiffies();
  server.stop();
  for (serve::Response& r : server.take_responses()) {
    responses.push_back(std::move(r));
  }

  // Account for every query due exactly once: answered, shed or refused.
  std::vector<std::uint8_t> seen(due_count, 0);
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
  std::uint64_t refused = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t last_answer_ns = start_ns;
  std::vector<double> answer_us;
  std::vector<double> waited_rounds;
  answer_us.reserve(due_count);
  for (const serve::Response& r : responses) {
    if (r.id == 0 || r.id > due_count || seen[r.id - 1] != 0) {
      ++duplicates;
      continue;
    }
    seen[r.id - 1] = 1;
    if (r.status == serve::Status::kShed) {
      ++shed;
    } else if (!r.detail.empty()) {
      ++refused;
    } else {
      ++answered;
      const std::uint64_t due = start_ns + (r.id - 1) * period_ns;
      answer_us.push_back(static_cast<double>(r.answer_ns - due) / 1e3);
      waited_rounds.push_back(static_cast<double>(r.round - r.arrival_round));
      if (r.answer == net::Answer::kInconsistent) ++inconsistent;
      last_answer_ns = std::max(last_answer_ns, r.answer_ns);
    }
  }
  const std::uint64_t never = due_count - answered - shed - refused;

  // Changes absorbed while serving: batches drawn inside the window.
  const double window = static_cast<double>(last_answer_ns - start_ns) / 1e9;
  std::uint64_t changes = 0;
  std::uint64_t rounds = 0;
  for (const FingerprintWorkload::Call& c : workload.calls()) {
    if (c.at_ns >= start_ns && c.at_ns <= last_answer_ns) {
      changes += c.changes;
      ++rounds;
    }
  }
  const double gen_late_p99 = quantile(late_us, 0.99);
  const net::Simulator& sim = session.sim();

  out["construct_s"] =
      Json::number(seconds_between(t_construct, t_constructed));
  // Round 1 through Session::advance, less the batch generation in it
  // (timed only in the traced modes).
  out["bootstrap_s"] =
      Json::number(seconds_between(t_constructed, t_setup) - next_round0);
  out["bytes_per_node"] =
      Json::number((rss_after - rss_before) / static_cast<double>(n));
  out["window_s"] = Json::number(window);
  out["cpu_s"] = Json::number(cpu - client_cpu);  // the engine thread's share
  out["changes_window"] = count(changes);
  out["due"] = count(due_count);
  out["ok"] = count(answered);
  out["shed"] = count(shed);
  out["refused"] = count(refused);
  out["never_answered"] = count(never);
  out["duplicates"] = count(duplicates);
  out["changes_total"] = count(workload.fingerprinted_changes());
  out["fingerprint"] = Json::string(hex(workload.fingerprint()));
  out["fingerprint_rounds"] =
      count(std::min(workload.rounds(), kServeFingerprintRounds));
  out["rounds"] = count(sim.round() - 1);
  out["window_rounds"] = count(rounds);
  out["amortized"] = Json::number(sim.metrics().amortized());
  out["peak_rss_mb"] = Json::number(peak_rss_mb());
  out["answer_p50_us"] = Json::number(quantile(answer_us, 0.50));
  out["answer_p90_us"] = Json::number(quantile(answer_us, 0.90));
  out["answer_p99_us"] = Json::number(quantile(answer_us, 0.99));
  out["answer_p999_us"] = Json::number(quantile(answer_us, 0.999));
  out["gen_late_us_p99"] = Json::number(gen_late_p99);
  out["involuntary_switches"] = count(static_cast<std::uint64_t>(switches));
  out["steal_pct"] = Json::number(
      100.0 * (steal1.first - steal0.first) / (steal1.second - steal0.second));
  out["submit_us_p99"] = Json::number(quantile(submit_us, 0.99));
  out["rounds_waited_p99"] = Json::number(quantile(waited_rounds, 0.99));
  out["backlog_peak"] = count(server.stats().backlog_peak);
  out["inconsistent_fraction"] = Json::number(
      static_cast<double>(inconsistent) / static_cast<double>(answered));
  out["edges"] = count(sim.graph().edge_count());

  if (o.mode != Mode::kPlain) {
    const net::PhaseTimings& p = sim.phase_timings();
    out["next_round_s"] = Json::number(workload.next_round_s() - next_round0);
    emit_phases(out, phases0, p);
    out["step_s"] = Json::number(
        static_cast<double>(p.total_ns() - phases0.total_ns()) / 1e9);
    // Engine counts cover every round after round 1, like step_s.
    workload.count_round();
    out["active_nodes"] = count(workload.active());
    out["stepped_nodes"] = count(workload.stepped());
    out["messages"] = count(sim.metrics().messages() - messages0);
    out["payload_bits"] = count(sim.metrics().payload_bits() - bits0);
    // The server owns the step() call, so the per-round timer here is the
    // period between consecutive rounds inside the window: step plus the
    // barrier drain that answers queries.
    std::vector<double> period_us;
    const auto& calls = workload.calls();
    for (std::size_t i = 1; i < calls.size(); ++i) {
      if (calls[i - 1].at_ns >= start_ns && calls[i].at_ns <= last_answer_ns) {
        period_us.push_back(
            static_cast<double>(calls[i].at_ns - calls[i - 1].at_ns) / 1e3);
      }
    }
    emit_step_percentiles(out, period_us);
    const auto [query_ns, list_ns] =
        time_final_queries(session.detector(), sim, o.seed, 20000);
    out["query_ns_p50"] = Json::number(query_ns);
    out["list_ns_p50"] = Json::number(list_ns);
  }
  if (o.mode == Mode::kLanes) emit_lanes(out, lanes0, lane_snapshot(recorder));

  if (o.audit) {
    const auto t0 = SteadyClock::now();
    const std::optional<std::string> failure = session.audit();
    out["audit_s"] = Json::number(seconds_between(t0, SteadyClock::now()));
    out["audit"] = Json::string(failure ? "fail: " + *failure : "pass");
  }
  print(out);
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--mode") {
      const std::string m = value();
      if (m == "plain") {
        o.mode = Mode::kPlain;
      } else if (m == "traced") {
        o.mode = Mode::kTraced;
      } else if (m == "lanes") {
        o.mode = Mode::kLanes;
      } else {
        die("unknown --mode " + m);
      }
    } else if (arg == "--audit") {
      o.audit = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else {
      die("unknown argument " + arg);
    }
  }
  if (o.workload != "churn_1m" && o.workload != "region_3hop" &&
      o.workload != "serve_100k") {
    die("--workload must be churn_1m, region_3hop or serve_100k");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  return o.workload == "serve_100k" ? run_serve(o) : run_engine(o);
}
