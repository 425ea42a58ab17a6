// Experiment harness: run summaries, sweep execution and result rendering.
//
// Every bench binary regenerates one of the paper's artifacts as a table
// (rows = sweep points) and an ASCII chart of the amortized-complexity
// series; this header is the shared vocabulary.  Sweep points are
// independent simulations, so ParallelSweep fans them out across hardware
// threads (node programs share no state by construction -- the
// message-passing discipline of the simulator is what makes this safe).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/simulator.hpp"

namespace dynsub::harness {

/// Everything a bench reports about one finished simulation.
struct RunSummary {
  std::size_t n = 0;
  std::int64_t rounds = 0;
  std::uint64_t changes = 0;
  std::uint64_t inconsistent_rounds = 0;
  double amortized = 0.0;      // inconsistent rounds / changes (final)
  double amortized_sup = 0.0;  // running max of the ratio
  double per_node_sup = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bits = 0;
  // Wall-clock perf (the BENCH_*.json trajectory): filled by the caller
  // that timed the run (see bench_util.hpp run_session); zero when the
  // run was not timed.
  double wall_seconds = 0.0;
  double rounds_per_sec = 0.0;
  // Round-latency percentiles in nanoseconds, from a telemetry recorder's
  // round-latency histogram (bench_util.hpp attaches one in histogram-only
  // mode).  Zero when the run carried no timing telemetry.  Wall-clock
  // data: excluded from record/replay byte-equality, gated in
  // perf_baseline.json by {"max": ...} ceilings only.
  double latency_p50_ns = 0.0;
  double latency_p99_ns = 0.0;
  // Per-phase engine time (requires SimulatorConfig::collect_phase_timings).
  std::uint64_t apply_ns = 0;
  std::uint64_t react_ns = 0;
  std::uint64_t route_ns = 0;
  std::uint64_t receive_ns = 0;
  // Transport-seam counters (net::TransportStats): all zero on the
  // LocalTransport path and on fault-free chaos runs -- the bench gate
  // pins them to zero ceilings on fault-free rows.
  std::uint64_t transport_retries = 0;
  std::uint64_t transport_redeliveries = 0;
  std::uint64_t transport_corruptions = 0;
  std::uint64_t transport_drops = 0;
  std::uint64_t transport_lost_batches = 0;
  std::uint64_t transport_recovery_events = 0;
  // Serve-layer counters (serve::ServeStats): how the query frontier did.
  // All zero for runs without a serve loop.  The percentiles are
  // round-to-answer latencies -- deterministic under serve::SimClock, wall
  // time under serve::WallClock (then gated by {"max"} ceilings only).
  std::uint64_t queries_answered = 0;
  std::uint64_t queries_shed = 0;
  double queries_per_sec = 0.0;
  double answer_p50_ns = 0.0;
  double answer_p99_ns = 0.0;
};

[[nodiscard]] RunSummary summarize(const net::Simulator& sim);

/// summarize() plus the wall-clock fields: `wall_seconds` is the measured
/// duration of the run; rounds_per_sec is derived.
[[nodiscard]] RunSummary summarize_timed(const net::Simulator& sim,
                                         double wall_seconds);

/// One (x, y) measurement of a named series.
struct SeriesPoint {
  double x = 0;
  double y = 0;
};

struct Series {
  std::string name;
  std::vector<SeriesPoint> points;
};

/// Fixed-width table of sweep results; first column is the x parameter.
[[nodiscard]] std::string render_results_table(
    const std::string& x_name, const std::vector<Series>& series);

/// A small log-scaled ASCII chart (y vs x) for eyeballing growth shapes in
/// terminal output -- the reproduction's stand-in for the paper's figures.
[[nodiscard]] std::string ascii_chart(const std::vector<Series>& series,
                                      std::size_t width = 64,
                                      std::size_t height = 16);

/// Runs `body(i)` for i in [0, count) on up to `threads` hardware threads
/// (0 = hardware concurrency), in deterministic slots: each index writes
/// only its own results.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

/// Least-squares slope of log(y) vs log(x): ~0 for O(1) curves, ~1 for
/// linear, ~0.5 for sqrt growth.  The benches print it so the growth shape
/// is a number, not a vibe.
[[nodiscard]] double log_log_slope(const Series& series);

}  // namespace dynsub::harness
