// dynsub_stats -- summarize a telemetry JSONL stream (dynsub_run
// --telemetry or --serve-jsonl) into the story a human wants
// from a run:
//
//   * totals and final amortized / amortized-sup,
//   * distribution percentiles (p50/p90/p99) over active-set size,
//     messages, and inconsistent-node count per round,
//   * the worst inconsistency window (longest consecutive streak of
//     rounds with at least one inconsistent node, with its peak),
//   * amortized-sup over time (evenly spaced samples),
//   * transport fault totals and the degraded-mode story (loss rounds,
//     degraded rounds, recovery events),
//   * per-shard cross-seam totals (frames, wire bytes, faults, lost
//     batches) when the stream carries shard records,
//   * the serve-layer story when the stream carries answer records: query
//     counts, shed counts, round-to-answer percentiles, throughput, and
//     the worst backlog depth.
//
// Three record types share the stream, discriminated by their leading key:
// round records start with "round" (tools/dynsub_run.cpp --telemetry),
// serve answer records with "req" (serve::write_serve_jsonl), and
// per-shard transport records with "shard" (dynsub_run --shard-stats:
// cross-seam frames, wire bytes, faults, lost batches).  The tool
// is also the schema guard: every line must parse as a JSON object
// carrying exactly its type's documented keys with the documented types
// (round numbers strictly increasing for round records, non-decreasing
// for answer records), otherwise it exits 1 -- CI runs it over freshly
// recorded streams so schema drift fails the smoke.
//
// Usage: dynsub_stats <telemetry.jsonl>   ("-" reads stdin)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hpp"
#include "net/metrics.hpp"
#include "serve/export.hpp"
#include "telemetry/export.hpp"
#include "telemetry/histogram.hpp"

namespace {

using dynsub::harness::Json;
using dynsub::telemetry::Log2Histogram;

struct Record {
  std::uint64_t round = 0;
  std::uint64_t changes = 0;
  std::uint64_t active = 0;
  std::uint64_t stepped = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bits = 0;
  std::uint64_t inconsistent_nodes = 0;
  std::uint64_t flips_down = 0;
  std::uint64_t flips_up = 0;
  std::uint64_t degraded_nodes = 0;
  bool had_loss = false;
  std::uint64_t transport_retries = 0;
  std::uint64_t transport_drops = 0;
  std::uint64_t transport_corruptions = 0;
  std::uint64_t transport_redeliveries = 0;
  std::uint64_t transport_backoff_units = 0;
  std::uint64_t transport_lost_batches = 0;
  std::uint64_t transport_degraded_marks = 0;
  std::uint64_t transport_recovery_events = 0;
  std::uint64_t inconsistent_rounds = 0;
  std::uint64_t changes_total = 0;
  double amortized = 0.0;
  double amortized_sup = 0.0;
};

bool fail(std::size_t line_no, const std::string& why) {
  std::cerr << "dynsub_stats: line " << line_no << ": " << why << "\n";
  return false;
}

std::uint64_t as_u64(const Json& j) {
  return static_cast<std::uint64_t>(j.as_number());
}

bool parse_record(const Json& doc, std::size_t line_no, Record& out) {
  // Exactly the writer's keys (telemetry::kRoundRecordKeys), in any order,
  // each with the right type.
  const auto& keys = dynsub::telemetry::kRoundRecordKeys;
  if (doc.members().size() != keys.size()) {
    return fail(line_no, "expected " + std::to_string(keys.size()) +
                             " keys, got " +
                             std::to_string(doc.members().size()));
  }
  for (const char* key : keys) {
    const Json* v = doc.find(key);
    if (v == nullptr) {
      return fail(line_no, std::string("missing key \"") + key + "\"");
    }
    const bool is_bool = std::string_view(key) == "had_loss";
    if (is_bool && v->type() != Json::Type::kBool) {
      return fail(line_no, std::string("key \"") + key + "\" not a bool");
    }
    if (!is_bool && v->type() != Json::Type::kNumber) {
      return fail(line_no,
                  std::string("key \"") + key + "\" not a number");
    }
  }
  out.round = as_u64(*doc.find("round"));
  out.changes = as_u64(*doc.find("changes"));
  out.active = as_u64(*doc.find("active"));
  out.stepped = as_u64(*doc.find("stepped"));
  out.messages = as_u64(*doc.find("messages"));
  out.payload_bits = as_u64(*doc.find("payload_bits"));
  out.inconsistent_nodes = as_u64(*doc.find("inconsistent_nodes"));
  out.flips_down = as_u64(*doc.find("flips_down"));
  out.flips_up = as_u64(*doc.find("flips_up"));
  out.degraded_nodes = as_u64(*doc.find("degraded_nodes"));
  out.had_loss = doc.find("had_loss")->as_bool();
  out.transport_retries = as_u64(*doc.find("transport_retries"));
  out.transport_drops = as_u64(*doc.find("transport_drops"));
  out.transport_corruptions = as_u64(*doc.find("transport_corruptions"));
  out.transport_redeliveries = as_u64(*doc.find("transport_redeliveries"));
  out.transport_backoff_units = as_u64(*doc.find("transport_backoff_units"));
  out.transport_lost_batches = as_u64(*doc.find("transport_lost_batches"));
  out.transport_degraded_marks = as_u64(*doc.find("transport_degraded_marks"));
  out.transport_recovery_events =
      as_u64(*doc.find("transport_recovery_events"));
  out.inconsistent_rounds = as_u64(*doc.find("inconsistent_rounds"));
  out.changes_total = as_u64(*doc.find("changes_total"));
  out.amortized = doc.find("amortized")->as_number();
  out.amortized_sup = doc.find("amortized_sup")->as_number();
  return true;
}

void print_hist(const char* name, const Log2Histogram& h) {
  std::printf("  %-20s p50=%-10.0f p90=%-10.0f p99=%-10.0f max=%llu\n", name,
              h.p50(), h.p90(), h.p99(),
              static_cast<unsigned long long>(h.max()));
}

// --- Per-shard transport records (dynsub_run --shard-stats; "shard"
// leads).  Same strictness as the round schema: exactly the documented
// keys, all numbers, shard ids strictly increasing from 0. ---

struct ShardRecord {
  std::uint64_t shard = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t faults = 0;
  std::uint64_t lost_batches = 0;
};

bool parse_shard_record(const Json& doc, std::size_t line_no,
                        ShardRecord& out) {
  const auto& keys = dynsub::net::kShardRecordKeys;
  if (doc.members().size() != keys.size()) {
    return fail(line_no, "expected " + std::to_string(keys.size()) +
                             " keys in a shard record, got " +
                             std::to_string(doc.members().size()));
  }
  for (const char* key : keys) {
    const Json* v = doc.find(key);
    if (v == nullptr) {
      return fail(line_no, std::string("missing key \"") + key + "\"");
    }
    if (v->type() != Json::Type::kNumber) {
      return fail(line_no, std::string("key \"") + key + "\" not a number");
    }
  }
  out.shard = as_u64(*doc.find("shard"));
  out.frames = as_u64(*doc.find("frames"));
  out.wire_bytes = as_u64(*doc.find("wire_bytes"));
  out.faults = as_u64(*doc.find("faults"));
  out.lost_batches = as_u64(*doc.find("lost_batches"));
  return true;
}

void print_shards_section(const std::vector<ShardRecord>& shards) {
  std::uint64_t frames = 0, wire_bytes = 0, faults = 0, lost = 0;
  std::printf("\nshards:\n");
  for (const ShardRecord& s : shards) {
    std::printf("  shard %-15llu frames %llu, wire bytes %llu, faults %llu, "
                "lost batches %llu\n",
                static_cast<unsigned long long>(s.shard),
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.wire_bytes),
                static_cast<unsigned long long>(s.faults),
                static_cast<unsigned long long>(s.lost_batches));
    frames += s.frames;
    wire_bytes += s.wire_bytes;
    faults += s.faults;
    lost += s.lost_batches;
  }
  std::printf("  %-21s frames %llu, wire bytes %llu, faults %llu, "
              "lost batches %llu\n",
              "total", static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(wire_bytes),
              static_cast<unsigned long long>(faults),
              static_cast<unsigned long long>(lost));
}

// --- Serve answer records (serve::write_serve_jsonl; "req" leads). ---

struct ServeRecord {
  std::uint64_t req = 0;
  std::string kind;
  std::string status;
  std::uint64_t node = 0;
  std::uint64_t round = 0;
  std::uint64_t arrival_round = 0;
  std::uint64_t arrival_ns = 0;
  std::uint64_t answer_ns = 0;
  std::uint64_t latency_ns = 0;
  std::string answer;
  std::uint64_t list_count = 0;
  std::uint64_t backlog = 0;
};

bool one_of(const std::string& v, std::initializer_list<const char*> opts) {
  for (const char* o : opts) {
    if (v == o) return true;
  }
  return false;
}

bool parse_serve_record(const Json& doc, std::size_t line_no,
                        ServeRecord& out) {
  const auto& keys = dynsub::serve::kServeRecordKeys;
  if (doc.members().size() != keys.size()) {
    return fail(line_no, "expected " + std::to_string(keys.size()) +
                             " keys in a serve record, got " +
                             std::to_string(doc.members().size()));
  }
  for (const char* key : keys) {
    const Json* v = doc.find(key);
    if (v == nullptr) {
      return fail(line_no, std::string("missing key \"") + key + "\"");
    }
    const bool is_string = std::string_view(key) == "kind" ||
                           std::string_view(key) == "status" ||
                           std::string_view(key) == "answer";
    if (is_string && v->type() != Json::Type::kString) {
      return fail(line_no,
                  std::string("key \"") + key + "\" not a string");
    }
    if (!is_string && v->type() != Json::Type::kNumber) {
      return fail(line_no,
                  std::string("key \"") + key + "\" not a number");
    }
  }
  out.req = as_u64(*doc.find("req"));
  out.kind = doc.find("kind")->as_string();
  out.status = doc.find("status")->as_string();
  out.node = as_u64(*doc.find("node"));
  out.round = as_u64(*doc.find("round"));
  out.arrival_round = as_u64(*doc.find("arrival_round"));
  out.arrival_ns = as_u64(*doc.find("arrival_ns"));
  out.answer_ns = as_u64(*doc.find("answer_ns"));
  out.latency_ns = as_u64(*doc.find("latency_ns"));
  out.answer = doc.find("answer")->as_string();
  out.list_count = as_u64(*doc.find("list_count"));
  out.backlog = as_u64(*doc.find("backlog"));
  if (!one_of(out.kind, {"query", "list", "audit"})) {
    return fail(line_no, "bad kind \"" + out.kind + "\"");
  }
  if (!one_of(out.status, {"ok", "shed"})) {
    return fail(line_no, "bad status \"" + out.status + "\"");
  }
  if (!one_of(out.answer, {"false", "true", "inconsistent"})) {
    return fail(line_no, "bad answer \"" + out.answer + "\"");
  }
  if (out.arrival_round > out.round) {
    return fail(line_no, "arrival_round " +
                             std::to_string(out.arrival_round) +
                             " after answer round " +
                             std::to_string(out.round));
  }
  return true;
}

void print_queries_section(const std::vector<ServeRecord>& answers) {
  std::uint64_t ok = 0, shed = 0;
  std::uint64_t ans_true = 0, ans_false = 0, ans_inconsistent = 0;
  std::uint64_t worst_backlog = 0;
  std::uint64_t first_arrival = 0, last_answer = 0;
  bool any_ok = false;
  Log2Histogram latency;
  for (const ServeRecord& r : answers) {
    if (r.status == "shed") {
      ++shed;
    } else {
      ++ok;
      latency.record(r.latency_ns);
      if (!any_ok || r.arrival_ns < first_arrival) {
        first_arrival = r.arrival_ns;
      }
      last_answer = std::max(last_answer, r.answer_ns);
      any_ok = true;
    }
    if (r.answer == "true") ++ans_true;
    if (r.answer == "false") ++ans_false;
    if (r.answer == "inconsistent") ++ans_inconsistent;
    worst_backlog = std::max(worst_backlog, r.backlog);
  }
  const double window_s =
      last_answer > first_arrival
          ? static_cast<double>(last_answer - first_arrival) / 1e9
          : 0.0;
  const double qps =
      window_s > 0.0 ? static_cast<double>(ok) / window_s : 0.0;
  std::printf("\nqueries:\n");
  std::printf("  requests              %llu answered, %llu shed\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed));
  std::printf("  answers               %llu true / %llu false / "
              "%llu inconsistent\n",
              static_cast<unsigned long long>(ans_true),
              static_cast<unsigned long long>(ans_false),
              static_cast<unsigned long long>(ans_inconsistent));
  print_hist("answer latency (ns)", latency);
  std::printf("  throughput            %.1f queries/sec over %.6fs window\n",
              qps, window_s);
  std::printf("  worst backlog depth   %llu\n",
              static_cast<unsigned long long>(worst_backlog));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: dynsub_stats <telemetry.jsonl>  (\"-\" for stdin)\n";
    return 2;
  }
  std::ifstream file;
  std::istream* in = &std::cin;
  if (std::string(argv[1]) != "-") {
    file.open(argv[1]);
    if (!file) {
      std::cerr << "dynsub_stats: cannot open " << argv[1] << "\n";
      return 2;
    }
    in = &file;
  }

  std::vector<Record> records;
  std::vector<ServeRecord> answers;
  std::vector<ShardRecord> shards;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::optional<Json> doc = Json::parse(line);
    if (!doc || doc->type() != Json::Type::kObject) {
      fail(line_no, "not a JSON object");
      return 1;
    }
    if (doc->find("shard") != nullptr) {
      ShardRecord r;
      if (!parse_shard_record(*doc, line_no, r)) return 1;
      if (r.shard != shards.size()) {
        fail(line_no, "shard id " + std::to_string(r.shard) +
                          " out of order (expected " +
                          std::to_string(shards.size()) + ")");
        return 1;
      }
      shards.push_back(r);
      continue;
    }
    if (doc->find("req") != nullptr) {
      ServeRecord r;
      if (!parse_serve_record(*doc, line_no, r)) return 1;
      if (!answers.empty() && r.round < answers.back().round) {
        fail(line_no, "answer round " + std::to_string(r.round) +
                          " before previous answer round " +
                          std::to_string(answers.back().round));
        return 1;
      }
      answers.push_back(std::move(r));
      continue;
    }
    Record r;
    if (!parse_record(*doc, line_no, r)) return 1;
    if (!records.empty() && r.round <= records.back().round) {
      fail(line_no, "round " + std::to_string(r.round) +
                        " not greater than previous round " +
                        std::to_string(records.back().round));
      return 1;
    }
    records.push_back(r);
  }
  if (records.empty() && answers.empty() && shards.empty()) {
    std::cerr << "dynsub_stats: no records\n";
    return 1;
  }
  if (records.empty()) {
    if (!shards.empty()) print_shards_section(shards);
    if (!answers.empty()) print_queries_section(answers);
    return 0;
  }

  // --- Totals. ---
  const Record& last = records.back();
  std::uint64_t messages = 0, payload_bits = 0, flips_down = 0, flips_up = 0;
  std::uint64_t retries = 0, drops = 0, corruptions = 0, redeliveries = 0;
  std::uint64_t backoff = 0, lost = 0, degraded_marks = 0, recoveries = 0;
  std::uint64_t loss_rounds = 0, degraded_rounds = 0, inconsistent_rounds = 0;
  Log2Histogram h_active, h_messages, h_inconsistent;
  for (const Record& r : records) {
    messages += r.messages;
    payload_bits += r.payload_bits;
    flips_down += r.flips_down;
    flips_up += r.flips_up;
    retries += r.transport_retries;
    drops += r.transport_drops;
    corruptions += r.transport_corruptions;
    redeliveries += r.transport_redeliveries;
    backoff += r.transport_backoff_units;
    lost += r.transport_lost_batches;
    degraded_marks += r.transport_degraded_marks;
    recoveries += r.transport_recovery_events;
    if (r.had_loss) ++loss_rounds;
    if (r.degraded_nodes > 0) ++degraded_rounds;
    if (r.inconsistent_nodes > 0) ++inconsistent_rounds;
    h_active.record(r.active);
    h_messages.record(r.messages);
    h_inconsistent.record(r.inconsistent_nodes);
  }

  // --- Worst inconsistency window: the longest consecutive streak of
  // rounds with at least one inconsistent node (ties: first wins). ---
  std::size_t best_len = 0, best_begin = 0;
  std::uint64_t best_peak = 0;
  std::size_t cur_len = 0, cur_begin = 0;
  std::uint64_t cur_peak = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].inconsistent_nodes > 0) {
      if (cur_len == 0) {
        cur_begin = i;
        cur_peak = 0;
      }
      ++cur_len;
      cur_peak = std::max(cur_peak, records[i].inconsistent_nodes);
      if (cur_len > best_len) {
        best_len = cur_len;
        best_begin = cur_begin;
        best_peak = cur_peak;
      }
    } else {
      cur_len = 0;
    }
  }

  std::printf("rounds                %llu (rounds %llu..%llu)\n",
              static_cast<unsigned long long>(records.size()),
              static_cast<unsigned long long>(records.front().round),
              static_cast<unsigned long long>(last.round));
  std::printf("changes               %llu\n",
              static_cast<unsigned long long>(last.changes_total));
  std::printf("messages              %llu (%llu payload bits)\n",
              static_cast<unsigned long long>(messages),
              static_cast<unsigned long long>(payload_bits));
  std::printf("inconsistent rounds   %llu observed / %llu cumulative\n",
              static_cast<unsigned long long>(inconsistent_rounds),
              static_cast<unsigned long long>(last.inconsistent_rounds));
  std::printf("consistency flips     %llu down / %llu up\n",
              static_cast<unsigned long long>(flips_down),
              static_cast<unsigned long long>(flips_up));
  std::printf("amortized             %.6g (final), sup %.6g\n", last.amortized,
              last.amortized_sup);

  std::printf("\nper-round distributions:\n");
  print_hist("active", h_active);
  print_hist("messages", h_messages);
  print_hist("inconsistent_nodes", h_inconsistent);

  std::printf("\nworst inconsistency window:\n");
  if (best_len == 0) {
    std::printf("  none (every round fully consistent)\n");
  } else {
    std::printf("  rounds %llu..%llu (%llu rounds, peak %llu nodes)\n",
                static_cast<unsigned long long>(records[best_begin].round),
                static_cast<unsigned long long>(
                    records[best_begin + best_len - 1].round),
                static_cast<unsigned long long>(best_len),
                static_cast<unsigned long long>(best_peak));
  }

  std::printf("\namortized-sup over time:\n");
  const std::size_t samples = std::min<std::size_t>(records.size(), 10);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t i = (records.size() - 1) * s / (samples - 1 == 0
                                                          ? 1
                                                          : samples - 1);
    std::printf("  round %-10llu sup %.6g\n",
                static_cast<unsigned long long>(records[i].round),
                records[i].amortized_sup);
  }

  std::printf("\ntransport:\n");
  std::printf("  retries %llu, drops %llu, corruptions %llu, "
              "redeliveries %llu, backoff %llu\n",
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(drops),
              static_cast<unsigned long long>(corruptions),
              static_cast<unsigned long long>(redeliveries),
              static_cast<unsigned long long>(backoff));
  std::printf("  lost batches %llu, degraded marks %llu, "
              "recovery events %llu\n",
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(degraded_marks),
              static_cast<unsigned long long>(recoveries));
  std::printf("  loss rounds %llu, degraded rounds %llu\n",
              static_cast<unsigned long long>(loss_rounds),
              static_cast<unsigned long long>(degraded_rounds));

  if (!shards.empty()) print_shards_section(shards);
  if (!answers.empty()) print_queries_section(answers);
  return 0;
}
