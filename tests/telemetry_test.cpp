// The telemetry subsystem suite (src/telemetry/): log2 histogram
// mechanics, the recorder's channel separation, and the three contracts
// the tentpole claims end to end:
//
//   * the DETERMINISTIC channel is byte-identical across thread counts
//     (fault-free) and across repeated runs at a fixed config, and the
//     timing channel being on or off never changes those bytes;
//
//   * a chaos run's JSONL reconstructs the degraded-mode story -- fault,
//     retries/backoff, degraded marks, recovery flicker, re-convergence
//     -- and its per-round transport deltas sum exactly to the engine's
//     cumulative TransportStats;
//
//   * the Chrome trace export is valid JSON with one named track per
//     lane, and a telemetry-free or timing-free run performs no timing
//     work (no spans, phase_timings untouched).
//
// It also pins each JSONL writer (round, shard, serve answer) to the key
// list exported beside it.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/triangle.hpp"
#include "dynamics/random_churn.hpp"
#include "harness/json.hpp"
#include "net/faults.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "serve/export.hpp"
#include "telemetry/export.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/sink.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

using telemetry::Log2Histogram;
using telemetry::Phase;
using telemetry::RecorderOptions;
using telemetry::RoundRecord;
using telemetry::Span;
using telemetry::TelemetryRecorder;

// ----------------------------------------------------------- histogram ----

TEST(Log2HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(~std::uint64_t{0}), 64u);
  for (std::size_t i = 1; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::bucket_lo(i)), i);
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::bucket_hi(i)), i);
  }
  EXPECT_EQ(Log2Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_hi(0), 0u);
}

TEST(Log2HistogramTest, CountSumMinMaxMean) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (const std::uint64_t v : {7u, 3u, 100u, 3u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 113u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 113.0 / 4.0);
}

TEST(Log2HistogramTest, QuantileIsExactForSingleValueAndClamped) {
  Log2Histogram h;
  for (int i = 0; i < 10; ++i) h.record(1000);
  // All mass in one bucket, clamped to [min, max] = [1000, 1000].
  EXPECT_DOUBLE_EQ(h.p50(), 1000.0);
  EXPECT_DOUBLE_EQ(h.p99(), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Log2HistogramTest, QuantilesWithinBucketResolution) {
  // 0..1023 uniform: a log2 bucketing bounds any quantile's error by 2x.
  Log2Histogram h;
  for (std::uint64_t v = 0; v < 1024; ++v) h.record(v);
  const double p50 = h.p50();
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);
  const double p99 = h.p99();
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1023.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
}

TEST(Log2HistogramTest, MergeMatchesCombinedRecording) {
  Log2Histogram a, b, both;
  for (std::uint64_t v = 0; v < 100; v += 3) {
    a.record(v);
    both.record(v);
  }
  for (std::uint64_t v = 1000; v < 5000; v += 37) {
    b.record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.buckets(), both.buckets());
  EXPECT_DOUBLE_EQ(a.p90(), both.p90());
  // Merging an empty histogram is a no-op.
  Log2Histogram empty;
  const auto before = a.buckets();
  a.merge(empty);
  EXPECT_EQ(a.buckets(), before);
  EXPECT_EQ(a.min(), both.min());
}

// ------------------------------------------------------------ recorder ----

namespace {

/// Runs the standard churn workload with `rec` attached and returns the
/// simulator's round count.
std::size_t run_churn(TelemetryRecorder& rec, std::size_t threads,
                      std::uint64_t seed = 0xD1u,
                      net::FaultPlan faults = {}, std::size_t shards = 1) {
  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 48;
  cp.max_changes = 4;
  cp.rounds = 30;
  cp.seed = seed;
  dynamics::RandomChurnWorkload wl(cp);
  net::SimulatorConfig cfg;
  cfg.threads = threads;
  cfg.threads_inline_cutoff = 0;  // race every dispatch
  cfg.shards = shards;
  cfg.faults = faults;
  cfg.telemetry = &rec;
  net::Simulator sim(cp.n, net::store_of<core::TriangleNode>(), cfg);
  net::run_workload(sim, wl, 100000);
  // Cross-check the deterministic channel against the engine's own meter.
  const auto& rounds = rec.rounds();
  if (!rounds.empty()) {
    EXPECT_EQ(rounds.back().round, sim.round());
    EXPECT_EQ(rounds.back().changes_total, sim.metrics().changes());
    EXPECT_EQ(rounds.back().inconsistent_rounds,
              sim.metrics().inconsistent_rounds());
    EXPECT_DOUBLE_EQ(rounds.back().amortized, sim.metrics().amortized());
    EXPECT_DOUBLE_EQ(rounds.back().amortized_sup,
                     sim.metrics().amortized_sup());
  }
  return sim.round();
}

std::string jsonl_of(const TelemetryRecorder& rec) {
  std::ostringstream os;
  telemetry::write_round_jsonl(os, rec.rounds());
  return os.str();
}

}  // namespace

TEST(TelemetryRecorderTest, DeterministicChannelFlowsWithoutTiming) {
  TelemetryRecorder rec;  // defaults: no timing, keep rounds
  const std::size_t rounds = run_churn(rec, 0);
  ASSERT_GT(rounds, 0u);
  ASSERT_EQ(rec.rounds().size(), rounds);
  // Round numbers are 1..N in order.
  for (std::size_t i = 0; i < rec.rounds().size(); ++i) {
    EXPECT_EQ(rec.rounds()[i].round, i + 1);
  }
  // No timing: no spans, no latency samples, no clock-derived state.
  EXPECT_FALSE(rec.timing_enabled());
  EXPECT_EQ(rec.round_latency_ns().count(), 0u);
  for (std::size_t lane = 0; lane < rec.lanes(); ++lane) {
    EXPECT_TRUE(rec.spans(lane).empty());
    for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
      EXPECT_EQ(rec.phase_ns(lane, static_cast<Phase>(p)).count(), 0u);
    }
  }
  // The fault-free run reports a clean transport story.
  for (const RoundRecord& r : rec.rounds()) {
    EXPECT_FALSE(r.had_loss);
    EXPECT_EQ(r.transport_retries, 0u);
    EXPECT_EQ(r.transport_lost_batches, 0u);
    EXPECT_EQ(r.degraded_nodes, 0u);
  }
}

TEST(TelemetryRecorderTest, TimingChannelFillsHistograms) {
  TelemetryRecorder rec(
      RecorderOptions{.timing = true, .keep_rounds = true, .keep_spans = false});
  const std::size_t rounds = run_churn(rec, 2);
  ASSERT_GT(rounds, 0u);
  EXPECT_EQ(rec.lanes(), 2u);
  // One kRound span per step lands in the latency histogram ...
  EXPECT_EQ(rec.round_latency_ns().count(), rounds);
  EXPECT_EQ(rec.phase_ns(0, Phase::kApply).count(), rounds);
  // ... but keep_spans off stores no raw spans.
  EXPECT_TRUE(rec.spans(0).empty());
  EXPECT_TRUE(rec.spans(1).empty());
  // Wire bytes: one sample per lane per round.
  EXPECT_EQ(rec.wire_bytes().count(), rounds * 2);
  // merged_phase_ns folds both lanes' react histograms.
  const Log2Histogram merged = rec.merged_phase_ns(Phase::kReact);
  EXPECT_EQ(merged.count(), rec.phase_ns(0, Phase::kReact).count() +
                                rec.phase_ns(1, Phase::kReact).count());
}

TEST(TelemetryRecorderTest, OnLanesOnlyGrows) {
  TelemetryRecorder rec;
  EXPECT_EQ(rec.lanes(), 1u);
  rec.on_lanes(4);
  EXPECT_EQ(rec.lanes(), 4u);
  rec.on_lanes(2);
  EXPECT_EQ(rec.lanes(), 4u);
}

TEST(SimulatorTelemetryTest, NoTimingMeansNoPhaseTimings) {
  // Satellite contract: attaching a deterministic-only sink must not turn
  // on the clock path -- phase_timings stays identically zero.
  TelemetryRecorder rec;
  dynamics::RandomChurnParams cp;
  cp.n = 16;
  cp.target_edges = 24;
  cp.max_changes = 3;
  cp.rounds = 20;
  cp.seed = 0xD2u;
  dynamics::RandomChurnWorkload wl(cp);
  net::SimulatorConfig cfg;
  cfg.telemetry = &rec;
  net::Simulator sim(cp.n, net::store_of<core::TriangleNode>(), cfg);
  net::run_workload(sim, wl, 100000);
  const net::PhaseTimings& t = sim.phase_timings();
  EXPECT_EQ(t.apply_ns, 0u);
  EXPECT_EQ(t.react_ns, 0u);
  EXPECT_EQ(t.route_ns, 0u);
  EXPECT_EQ(t.receive_ns, 0u);
  EXPECT_FALSE(rec.rounds().empty());
}

// -------------------------------------------- deterministic byte-equality ----

TEST(TelemetryDeterminismTest, JsonlByteIdenticalAcrossThreadCounts) {
  TelemetryRecorder base;
  run_churn(base, 0);
  const std::string expected = jsonl_of(base);
  ASSERT_FALSE(expected.empty());
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    TelemetryRecorder rec;
    run_churn(rec, threads);
    EXPECT_TRUE(base.rounds() == rec.rounds()) << threads << " threads";
    EXPECT_EQ(expected, jsonl_of(rec)) << threads << " threads";
  }
}

TEST(TelemetryDeterminismTest, JsonlByteIdenticalAcrossShardCounts) {
  // The deterministic channel is partition-blind: the RoundRecord stream
  // (and its serialized JSONL bytes) must not change when the engine is
  // split into shards, at any thread count.
  TelemetryRecorder base;
  run_churn(base, 0);
  const std::string expected = jsonl_of(base);
  ASSERT_FALSE(expected.empty());
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      TelemetryRecorder rec;
      run_churn(rec, threads, 0xD1u, {}, shards);
      EXPECT_TRUE(base.rounds() == rec.rounds())
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(expected, jsonl_of(rec))
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST(TelemetryDeterminismTest, TimingOnDoesNotChangeJsonlBytes) {
  TelemetryRecorder plain;
  TelemetryRecorder timed(
      RecorderOptions{.timing = true, .keep_rounds = true, .keep_spans = true});
  run_churn(plain, 2);
  run_churn(timed, 2);
  EXPECT_EQ(jsonl_of(plain), jsonl_of(timed));
}

TEST(TelemetryDeterminismTest, ChaosRunsRepeatByteIdentically) {
  // Even under faults the channel is a pure function of the fixed config:
  // two runs at the same seed/threads produce the same bytes.
  net::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 11;
  plan.drop = 0.05;
  plan.corrupt = 0.02;
  plan.duplicate = 0.05;
  TelemetryRecorder a, b;
  run_churn(a, 2, 0xD3u, plan);
  run_churn(b, 2, 0xD3u, plan);
  ASSERT_FALSE(a.rounds().empty());
  EXPECT_EQ(jsonl_of(a), jsonl_of(b));
}

// ----------------------------------------------------- degraded story ----

TEST(ChaosTelemetryTest, JsonlReconstructsDegradedModeStory) {
  // The DegradedMode outage (transport_test) through the telemetry lens:
  // the per-round records alone must tell the whole story -- loss, lost
  // batches, degraded marks, recovery flicker, and final re-convergence
  // -- and their deltas must sum exactly to the engine's cumulative
  // TransportStats.
  net::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 9;
  plan.kill_lane = 0;
  plan.kill_from = 6;
  plan.kill_until = 16;
  plan.max_retries = 1;

  dynamics::RandomChurnParams cp;
  cp.n = 24;
  cp.target_edges = 48;
  cp.max_changes = 4;
  cp.rounds = 40;
  cp.seed = 0xC4u;
  dynamics::RandomChurnWorkload wl(cp);
  net::SimulatorConfig cfg;
  cfg.faults = plan;
  TelemetryRecorder rec;
  cfg.telemetry = &rec;
  net::Simulator sim(cp.n, net::store_of<core::TriangleNode>(), cfg);
  net::run_workload(sim, wl, 100000);
  ASSERT_TRUE(sim.all_consistent());

  const std::vector<RoundRecord>& rounds = rec.rounds();
  ASSERT_FALSE(rounds.empty());

  // 1. The fault bit: some round lost a batch, and that round is marked.
  std::size_t first_loss = rounds.size();
  net::TransportStats sum;
  std::uint64_t degraded_rounds = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundRecord& r = rounds[i];
    sum.retries += r.transport_retries;
    sum.drops += r.transport_drops;
    sum.corruptions += r.transport_corruptions;
    sum.redeliveries += r.transport_redeliveries;
    sum.backoff_units += r.transport_backoff_units;
    sum.lost_batches += r.transport_lost_batches;
    sum.degraded_marks += r.transport_degraded_marks;
    sum.recovery_events += r.transport_recovery_events;
    // had_loss means destinations actually went unserved; a lost batch
    // that carried nothing for anyone (possible -- empty lane batches can
    // exhaust retries too) legitimately leaves the flag down.  Degraded
    // marks, however, only ever happen on a loss round.
    if (r.transport_degraded_marks > 0) {
      EXPECT_TRUE(r.had_loss) << "round " << r.round;
    }
    if (r.had_loss) {
      EXPECT_GT(r.transport_lost_batches, 0u) << "round " << r.round;
      first_loss = std::min(first_loss, i);
    }
    if (r.degraded_nodes > 0) ++degraded_rounds;
  }
  ASSERT_LT(first_loss, rounds.size()) << "outage never bit";

  // 2. Deltas sum to the engine's cumulative counters.
  const net::TransportStats& engine = sim.metrics().transport();
  EXPECT_EQ(sum.retries, engine.retries);
  EXPECT_EQ(sum.drops, engine.drops);
  EXPECT_EQ(sum.corruptions, engine.corruptions);
  EXPECT_EQ(sum.redeliveries, engine.redeliveries);
  EXPECT_EQ(sum.backoff_units, engine.backoff_units);
  EXPECT_EQ(sum.lost_batches, engine.lost_batches);
  EXPECT_EQ(sum.degraded_marks, engine.degraded_marks);
  EXPECT_EQ(sum.recovery_events, engine.recovery_events);
  EXPECT_GT(sum.lost_batches, 0u);
  EXPECT_GT(sum.degraded_marks, 0u);
  EXPECT_GT(sum.recovery_events, 0u);

  // 3. The story's arc: the loss round marks nodes degraded the same
  // round; the flags show as inconsistent; recovery flicker fires only
  // after loss; and the run ends clean.
  EXPECT_GT(degraded_rounds, 0u);
  const RoundRecord& loss_round = rounds[first_loss];
  EXPECT_GT(loss_round.transport_degraded_marks, 0u);
  EXPECT_GT(loss_round.degraded_nodes, 0u);
  EXPECT_GT(loss_round.inconsistent_nodes, 0u);
  for (std::size_t i = 0; i < first_loss; ++i) {
    EXPECT_EQ(rounds[i].transport_recovery_events, 0u);
    EXPECT_EQ(rounds[i].degraded_nodes, 0u);
  }
  const RoundRecord& last = rounds.back();
  EXPECT_EQ(last.inconsistent_nodes, 0u);
  EXPECT_EQ(last.degraded_nodes, 0u);
  EXPECT_FALSE(last.had_loss);
}

// --------------------------------------------------------- chrome trace ----

TEST(ChromeTraceTest, ExportIsValidJsonWithPerLaneTracks) {
  TelemetryRecorder rec(
      RecorderOptions{.timing = true, .keep_rounds = false, .keep_spans = true});
  const std::size_t rounds = run_churn(rec, 2);
  ASSERT_GT(rounds, 0u);
  EXPECT_TRUE(rec.rounds().empty());  // keep_rounds off

  std::ostringstream os;
  telemetry::write_chrome_trace(os, rec);
  const auto doc = harness::Json::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << "chrome trace is not valid JSON";
  const harness::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type(), harness::Json::Type::kArray);

  std::size_t metadata = 0, complete = 0, round_spans = 0;
  bool saw_lane1 = false;
  for (const harness::Json& ev : events->items()) {
    const harness::Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "M") {
      ++metadata;
      EXPECT_EQ(ev.find("name")->as_string(), "thread_name");
      continue;
    }
    ASSERT_EQ(ph->as_string(), "X");
    ++complete;
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    EXPECT_GE(ev.find("ts")->as_number(), 0.0);
    if (ev.find("tid")->as_number() == 1.0) saw_lane1 = true;
    if (ev.find("name")->as_string() == "round") ++round_spans;
  }
  EXPECT_EQ(metadata, rec.lanes());  // one track per lane
  EXPECT_GT(complete, 0u);
  EXPECT_TRUE(saw_lane1) << "no spans on the worker lane";
  EXPECT_EQ(round_spans, rounds);  // one whole-round span per step
}

TEST(ChromeTraceTest, TracksAreNamedByShardGrid) {
  // Under the shard engine every staging slot p = s * L + l gets its own
  // track, labeled shard<s>/lane<l>; tids stay the flat slot index so
  // span attribution is unchanged.
  TelemetryRecorder rec(
      RecorderOptions{.timing = true, .keep_rounds = false, .keep_spans = true});
  run_churn(rec, /*threads=*/2, 0xD1u, {}, /*shards=*/2);
  ASSERT_EQ(rec.shards(), 2u);
  ASSERT_EQ(rec.lanes_per_shard(), 2u);
  ASSERT_EQ(rec.lanes(), 4u);  // slots = shards * lanes_per_shard

  std::ostringstream os;
  telemetry::write_chrome_trace(os, rec);
  const auto doc = harness::Json::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << "chrome trace is not valid JSON";
  const harness::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::map<double, std::string> track_names;
  for (const harness::Json& ev : events->items()) {
    if (ev.find("ph")->as_string() != "M") continue;
    track_names[ev.find("tid")->as_number()] =
        ev.find("args")->find("name")->as_string();
  }
  ASSERT_EQ(track_names.size(), 4u);
  EXPECT_EQ(track_names[0.0], "shard0/lane0");
  EXPECT_EQ(track_names[1.0], "shard0/lane1");
  EXPECT_EQ(track_names[2.0], "shard1/lane0");
  EXPECT_EQ(track_names[3.0], "shard1/lane1");
}

// ------------------------------------------------------- JSONL schemas ----

/// The member keys of one JSONL line, in written order.
std::vector<std::string> keys_of(const std::string& line) {
  const auto doc = harness::Json::parse(line);
  EXPECT_TRUE(doc.has_value()) << line;
  std::vector<std::string> keys;
  if (doc) {
    for (const auto& [key, value] : doc->members()) keys.push_back(key);
  }
  return keys;
}

template <std::size_t N>
std::vector<std::string> as_strings(const std::array<const char*, N>& keys) {
  return {keys.begin(), keys.end()};
}

// Each JSONL writer's line carries exactly the key list exported beside
// it, in order: the lists are what dynsub_stats validates against, so a
// writer drifting from its list is a schema break.
TEST(JsonlSchemaTest, EachWriterCarriesExactlyItsExportedKeysInOrder) {
  RoundRecord round;
  round.round = 3;
  round.had_loss = true;
  round.amortized = 0.25;
  std::ostringstream rounds;
  telemetry::write_round_jsonl(rounds, std::span<const RoundRecord>(&round, 1));
  EXPECT_EQ(keys_of(rounds.str()), as_strings(telemetry::kRoundRecordKeys));

  const std::vector<net::ShardStats> per_shard{{1, 2, 3, 4}, {5, 6, 7, 8}};
  std::ostringstream shards;
  net::write_shard_jsonl(shards, per_shard);
  std::istringstream lines(shards.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(keys_of(line), as_strings(net::kShardRecordKeys));
    ++count;
  }
  EXPECT_EQ(count, per_shard.size());

  serve::Response answer;
  answer.answer = net::Answer::kTrue;
  EXPECT_EQ(keys_of(serve::to_jsonl(answer)),
            as_strings(serve::kServeRecordKeys));
}

}  // namespace
}  // namespace dynsub
