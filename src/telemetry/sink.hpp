// TelemetrySink -- the engine-side observability interface.
//
// The round engine reports through two strictly separated channels:
//
//   * the DETERMINISTIC channel: one RoundRecord per step(), built
//     exclusively from engine state (counts, flips, transport counters,
//     the running amortized ratio).  For a fixed SimulatorConfig it is a
//     pure function of the event stream, so its serialized form (JSONL,
//     telemetry/export.hpp) is byte-identical across thread counts on the
//     fault-free path and across record/replay always -- it may appear in
//     byte-equality CI gates.
//
//   * the TIMING channel: wall-clock Spans (per-lane phase execution,
//     barrier waits, the transport exchange, whole rounds) plus per-lane
//     encoded wire sizes.  Timing is nondeterministic by nature and wire
//     bytes depend on the lane count, so nothing from this channel may
//     ever leak into a byte-equality surface; it feeds histograms and the
//     Chrome trace-event export only.
//
// Cost contract: with SimulatorConfig::telemetry == nullptr the engine
// does no telemetry work at all -- no clock reads, no virtual calls.  With
// a sink attached, the deterministic channel costs one virtual call and a
// few dozen integer copies per round; the timing channel (clock reads,
// Span emission) is additionally gated behind timing_enabled().
#pragma once

#include <cstdint>

namespace dynsub::telemetry {

/// Where a Span was measured.  kReact/kReceive spans are per-lane (one
/// per lane per round); the rest are barrier-side on lane 0.
enum class Phase : std::uint8_t {
  kApply = 0,     // Phase 0: event validation + graph apply (barrier)
  kReact,         // Phase 1: react_and_send over one lane's shard
  kExchange,      // Phase 2a: the transport seam (barrier)
  kRoute,         // Phase 2: routing merge + receiver assembly (barrier)
  kReceive,       // Phase 3: receive_and_update over one lane's shard
  kBarrier,       // fork-join wait: lane 0 idle until workers drain
  kRound,         // the whole step(), end to end (barrier)
};
inline constexpr std::size_t kPhaseCount = 7;

[[nodiscard]] constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kApply: return "apply";
    case Phase::kReact: return "react";
    case Phase::kExchange: return "exchange";
    case Phase::kRoute: return "route";
    case Phase::kReceive: return "receive";
    case Phase::kBarrier: return "barrier";
    case Phase::kRound: return "round";
  }
  return "?";
}

/// Deterministic channel: everything the engine knows about one round,
/// in engine units (counts and exact ratios; never wall-clock time).
struct RoundRecord {
  std::uint64_t round = 0;
  std::uint64_t changes = 0;       // topology events applied this round
  std::uint64_t active = 0;        // send-half active set size
  std::uint64_t stepped = 0;       // active + pure receivers
  std::uint64_t messages = 0;      // messages delivered this round
  std::uint64_t payload_bits = 0;  // payload bits delivered this round
  std::uint64_t inconsistent_nodes = 0;  // flags down at end of round
  std::uint64_t flips_down = 0;    // consistent -> inconsistent this round
  std::uint64_t flips_up = 0;      // inconsistent -> consistent this round
  std::uint64_t degraded_nodes = 0;  // still degraded at end of round
  bool had_loss = false;           // a lane batch exhausted its retries
  // Transport-seam counter deltas for this round (net::TransportStats).
  // Deliberately excludes batches/wire_bytes, which depend on the lane
  // count and belong to the timing/profiling channel.
  std::uint64_t transport_retries = 0;
  std::uint64_t transport_drops = 0;
  std::uint64_t transport_corruptions = 0;
  std::uint64_t transport_redeliveries = 0;
  std::uint64_t transport_backoff_units = 0;
  std::uint64_t transport_lost_batches = 0;
  std::uint64_t transport_degraded_marks = 0;
  std::uint64_t transport_recovery_events = 0;
  // Cumulative complexity accounting (net::Metrics) after this round.
  std::uint64_t inconsistent_rounds = 0;
  std::uint64_t changes_total = 0;
  double amortized = 0.0;      // inconsistent_rounds / changes_total
  double amortized_sup = 0.0;  // running max of the ratio

  friend bool operator==(const RoundRecord&, const RoundRecord&) = default;
};

/// Timing channel: one measured interval.  start_ns is steady_clock time
/// since its (arbitrary) epoch -- only differences and the export-time
/// normalization against the earliest span are meaningful.
struct Span {
  Phase phase = Phase::kRound;
  std::uint32_t lane = 0;
  std::uint64_t round = 0;  // 0 when the emitter has no round context
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  /// Announced once before the first round: the engine's lane count.
  /// Lets sinks pre-size per-lane state so on_span stays race-free.
  /// Under the shard engine "lanes" counts STAGING SLOTS (shards x
  /// lanes-per-shard); span.lane is the slot index.
  virtual void on_lanes(std::size_t lanes) { (void)lanes; }

  /// Announced once before the first round: the slot grid's geometry
  /// (slot p = shard * lanes_per_shard + lane within the shard).  Purely
  /// presentational -- lets exporters label tracks "shard<s>/lane<l>";
  /// sinks that ignore it see the flat slot index from on_lanes.
  virtual void on_shards(std::size_t shards, std::size_t lanes_per_shard) {
    (void)shards;
    (void)lanes_per_shard;
  }

  /// Deterministic channel; called once per step() at the round barrier
  /// (single-threaded).
  virtual void on_round(const RoundRecord& record) { (void)record; }

  /// Timing channel; kReact/kReceive spans may arrive CONCURRENTLY from
  /// distinct lanes (the engine partitions lanes, so implementations are
  /// race-free iff they key state by span.lane).  Only called when
  /// timing_enabled().
  virtual void on_span(const Span& span) { (void)span; }

  /// Timing/profiling channel: one lane batch's encoded wire size at the
  /// round barrier (single-threaded).  Lane-count-dependent -- never part
  /// of the deterministic channel.
  virtual void on_wire_bytes(std::uint64_t bytes) { (void)bytes; }

  /// When false the engine performs no clock reads and emits no spans;
  /// sampled once at simulator construction.
  [[nodiscard]] virtual bool timing_enabled() const { return false; }
};

}  // namespace dynsub::telemetry
