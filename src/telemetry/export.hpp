// Exporters for recorded telemetry.
//
//   * write_round_jsonl: the DETERMINISTIC channel as JSON Lines -- one
//     compact object per round, fixed key order, integers printed as
//     integers and doubles in shortest-round-trip form, so for a fixed
//     SimulatorConfig the bytes are a pure function of the event stream
//     (the CI smoke gate cmp(1)'s these files across record/replay and
//     thread counts).
//
//   * write_chrome_trace: the TIMING channel in Chrome trace-event JSON
//     ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto.
//     Each engine lane renders as its own named track (pid 0, tid =
//     lane), phases as complete ("X") events with microsecond ts/dur
//     normalized to the earliest recorded span.  Requires a recorder with
//     keep_spans; the output is wall-clock data and must never enter a
//     byte-equality gate.
#pragma once

#include <array>
#include <iosfwd>
#include <span>

#include "telemetry/recorder.hpp"
#include "telemetry/sink.hpp"

namespace dynsub::telemetry {

/// The fixed key order of one round record, RoundRecord's fields in
/// declaration order.  write_round_jsonl writes exactly these keys and
/// dynsub_stats validates against them; "had_loss" is the one boolean,
/// "amortized" and "amortized_sup" the doubles, the rest are integers.
inline constexpr std::array<const char*, 23> kRoundRecordKeys = {
    "round",
    "changes",
    "active",
    "stepped",
    "messages",
    "payload_bits",
    "inconsistent_nodes",
    "flips_down",
    "flips_up",
    "degraded_nodes",
    "had_loss",
    "transport_retries",
    "transport_drops",
    "transport_corruptions",
    "transport_redeliveries",
    "transport_backoff_units",
    "transport_lost_batches",
    "transport_degraded_marks",
    "transport_recovery_events",
    "inconsistent_rounds",
    "changes_total",
    "amortized",
    "amortized_sup",
};

/// One compact JSON object per record, '\n'-terminated.  Key order and
/// number formatting are part of the byte-equality contract -- extend
/// only by appending keys and bump the schema notes in the README.
void write_round_jsonl(std::ostream& os, std::span<const RoundRecord> rounds);

/// Chrome trace-event document from the recorder's raw spans.
void write_chrome_trace(std::ostream& os, const TelemetryRecorder& recorder);

}  // namespace dynsub::telemetry
