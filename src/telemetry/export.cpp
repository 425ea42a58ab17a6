#include "telemetry/export.hpp"

#include <cstdio>
#include <limits>
#include <ostream>
#include <string>

#include "common/check.hpp"
#include "common/format.hpp"

namespace dynsub::telemetry {

namespace {

void u64_to(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

/// Appends one record's `"key":value` pairs in the order of its key list.
class RecordLine {
 public:
  RecordLine(std::string& out, std::span<const char* const> keys)
      : out_(out), keys_(keys) {}

  void u64(std::uint64_t v) { u64_to(key(), v); }
  void real(double v) { append_shortest(key(), v); }
  void boolean(bool v) { key() += v ? "true" : "false"; }

  /// Closes the record; every key must have been written.
  void end() {
    DYNSUB_CHECK(next_ == keys_.size());
    out_ += "}\n";
  }

 private:
  std::string& key() {
    DYNSUB_CHECK(next_ < keys_.size());
    out_ += next_ == 0 ? "{\"" : ",\"";
    out_ += keys_[next_++];
    out_ += "\":";
    return out_;
  }

  std::string& out_;
  std::span<const char* const> keys_;
  std::size_t next_ = 0;
};

}  // namespace

void write_round_jsonl(std::ostream& os,
                       std::span<const RoundRecord> rounds) {
  std::string line;
  for (const RoundRecord& r : rounds) {
    line.clear();
    RecordLine rec(line, kRoundRecordKeys);
    rec.u64(r.round);
    rec.u64(r.changes);
    rec.u64(r.active);
    rec.u64(r.stepped);
    rec.u64(r.messages);
    rec.u64(r.payload_bits);
    rec.u64(r.inconsistent_nodes);
    rec.u64(r.flips_down);
    rec.u64(r.flips_up);
    rec.u64(r.degraded_nodes);
    rec.boolean(r.had_loss);
    rec.u64(r.transport_retries);
    rec.u64(r.transport_drops);
    rec.u64(r.transport_corruptions);
    rec.u64(r.transport_redeliveries);
    rec.u64(r.transport_backoff_units);
    rec.u64(r.transport_lost_batches);
    rec.u64(r.transport_degraded_marks);
    rec.u64(r.transport_recovery_events);
    rec.u64(r.inconsistent_rounds);
    rec.u64(r.changes_total);
    rec.real(r.amortized);
    rec.real(r.amortized_sup);
    rec.end();
    os << line;
  }
}

void write_chrome_trace(std::ostream& os,
                        const TelemetryRecorder& recorder) {
  // Normalize timestamps to the earliest span so the trace starts at 0.
  std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t lane = 0; lane < recorder.lanes(); ++lane) {
    for (const Span& s : recorder.spans(lane)) {
      epoch = std::min(epoch, s.start_ns);
    }
  }
  if (epoch == std::numeric_limits<std::uint64_t>::max()) epoch = 0;

  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  // One named track per staging slot (pid 0, tid = slot), labeled by the
  // shard grid: slot p = shard * L + lane-within-shard.  A recorder that
  // never saw on_shards (manual sinks, old captures) reads as one shard.
  const std::size_t per_shard = recorder.lanes_per_shard() > 0
                                    ? recorder.lanes_per_shard()
                                    : recorder.lanes();
  for (std::size_t lane = 0; lane < recorder.lanes(); ++lane) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    u64_to(out, lane);
    out += ",\"args\":{\"name\":\"shard";
    u64_to(out, lane / per_shard);
    out += "/lane";
    u64_to(out, lane % per_shard);
    out += "\"}}";
  }
  for (std::size_t lane = 0; lane < recorder.lanes(); ++lane) {
    for (const Span& s : recorder.spans(lane)) {
      comma();
      out += "{\"name\":\"";
      out += phase_name(s.phase);
      out += "\",\"ph\":\"X\",\"pid\":0,\"tid\":";
      u64_to(out, s.lane);
      out += ",\"ts\":";
      append_shortest(out, static_cast<double>(s.start_ns - epoch) / 1000.0);
      out += ",\"dur\":";
      append_shortest(out, static_cast<double>(s.dur_ns) / 1000.0);
      out += ",\"args\":{\"round\":";
      u64_to(out, s.round);
      out += "}}";
      // Flush in chunks so multi-hundred-MB traces do not balloon RAM.
      if (out.size() >= (1u << 20)) {
        os << out;
        out.clear();
      }
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  os << out;
}

}  // namespace dynsub::telemetry
