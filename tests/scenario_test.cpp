// Tests for the scenario subsystem: the spec grammar, the registry's typed
// parameter parsing, and -- the load-bearing part -- equivalence laws for
// the workload combinators, locked the same golden-trace way as
// simulator_equivalence_test.cpp: drive two workloads against identically
// seeded simulators, record both event streams, and require them equal
// round by round along with the final metrics.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/triangle.hpp"
#include "dynamics/planted.hpp"
#include "dynamics/random_churn.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "net/workload.hpp"
#include "scenario/compose.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {


// ----------------------------------------------------------------- spec ----

TEST(SpecTest, ParsesBareName) {
  const auto node = scenario::parse_spec("churn");
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->name, "churn");
  EXPECT_TRUE(node->params.empty());
  EXPECT_TRUE(node->children.empty());
}

TEST(SpecTest, ParsesParamsAndNestedChildren) {
  const auto node = scenario::parse_spec(
      "  overlay( remap( churn( n=32, delfrac=0.25 ), offset=8 ), "
      "planted-clique, stabilize=1 ) ");
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->name, "overlay");
  ASSERT_EQ(node->params.size(), 1u);
  EXPECT_EQ(node->params[0], (std::pair<std::string, std::string>{
                                 "stabilize", "1"}));
  ASSERT_EQ(node->children.size(), 2u);
  const scenario::SpecNode& remap = node->children[0];
  EXPECT_EQ(remap.name, "remap");
  ASSERT_EQ(remap.children.size(), 1u);
  EXPECT_EQ(remap.children[0].name, "churn");
  ASSERT_NE(remap.children[0].param("delfrac"), nullptr);
  EXPECT_EQ(*remap.children[0].param("delfrac"), "0.25");
  EXPECT_EQ(node->children[1].name, "planted-clique");
}

TEST(SpecTest, ToStringRoundTrips) {
  const char* specs[] = {
      "churn",
      "churn(n=64, target=128)",
      "throttle(churn(n=64, max=12), cap=3)",
      "seq(overlay(remap(churn(n=16), offset=0), remap(churn(n=16), "
      "offset=16)), churn(n=32), stabilize=1)",
  };
  for (const char* text : specs) {
    const auto node = scenario::parse_spec(text);
    ASSERT_TRUE(node.has_value()) << text;
    const auto back = scenario::parse_spec(scenario::to_string(*node));
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, *node) << text;
  }
}

TEST(SpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                      // no name
      "1churn",                // name cannot start with a digit
      "churn(",                // unclosed paren
      "churn(n=)",             // missing value
      "churn(n=1,)",           // dangling comma
      "churn(=1)",             // missing key
      "churn() trailing",      // junk after the spec
      "churn(n=1))",           // extra close
      "overlay(churn),(",      // junk after the spec
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(scenario::parse_spec(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SpecTest, RejectsOverDeepNesting) {
  std::string text;
  for (int i = 0; i < 40; ++i) text += "jitter(";
  text += "churn";
  for (int i = 0; i < 40; ++i) text += ")";
  std::string error;
  EXPECT_FALSE(scenario::parse_spec(text, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos);
}

// ------------------------------------------------------------- registry ----

TEST(RegistryTest, EveryCatalogExampleBuildsAndRuns) {
  // The catalog's own examples double as the in-process smoke: every
  // registered scenario (composites by bare name, combinators through
  // their example spec) must build and run to completion at tiny scale.
  scenario::ScenarioOptions opts;
  opts.n = 32;
  opts.seed = 7;
  opts.quick = true;
  for (const auto& info : scenario::scenario_catalog()) {
    const std::string spec =
        info.kind == scenario::ScenarioKind::kCombinator ? info.example
                                                         : info.name;
    std::string error;
    auto built = scenario::build_scenario(spec, opts, &error);
    ASSERT_TRUE(built.has_value()) << spec << ": " << error;
    ASSERT_GE(built->nodes, 2u) << spec;
    net::Simulator sim(built->nodes, net::store_of<core::TriangleNode>());
    const std::size_t rounds =
        net::run_workload(sim, *built->workload, 200000);
    EXPECT_TRUE(built->workload->finished()) << spec;
    EXPECT_TRUE(sim.all_consistent()) << spec;
    EXPECT_GT(rounds, 0u) << spec;
  }
}

TEST(RegistryTest, UnknownScenarioAndUnknownParameterAreErrors) {
  scenario::ScenarioOptions opts;
  std::string error;
  EXPECT_FALSE(scenario::build_scenario("frobnicate", opts, &error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos);

  error.clear();
  EXPECT_FALSE(scenario::build_scenario("churn(round=5)", opts, &error));
  EXPECT_NE(error.find("round"), std::string::npos);

  error.clear();
  EXPECT_FALSE(scenario::build_scenario("churn(n=banana)", opts, &error));
  EXPECT_NE(error.find("banana"), std::string::npos);

  // Real-valued parameters are just as strict: nan/inf/negatives/hex
  // floats would produce a quietly wrong regime, not an error.
  std::vector<std::string> bad_reals = {
      "churn(delfrac=nan)", "churn(delfrac=-1)", "churn(delfrac=inf)",
      "sessions(alpha=0x1p3)", "churn(delfrac=1e-2)",
      "churn(delfrac=.5)", "churn(delfrac=5.)", "churn(delfrac=1.2.3)",
      // Digits-only but past double range: strtod overflows to +inf.
      "churn(delfrac=" + std::string(400, '9') + ")"};
  for (const std::string& bad : bad_reals) {
    error.clear();
    EXPECT_FALSE(scenario::build_scenario(bad, opts, &error)) << bad;
    EXPECT_NE(error.find("number"), std::string::npos) << bad;
  }
  EXPECT_TRUE(scenario::build_scenario("churn(delfrac=0.75, rounds=4)",
                                       opts, &error));

  error.clear();
  EXPECT_FALSE(
      scenario::build_scenario("throttle(cap=3)", opts, &error));
  EXPECT_NE(error.find("child"), std::string::npos);

  error.clear();
  EXPECT_FALSE(scenario::build_scenario("flash-crowd(n=4)", opts, &error));
  EXPECT_NE(error.find("composite"), std::string::npos);

  // Negative values must not wrap through strtoull into huge unsigneds.
  error.clear();
  EXPECT_FALSE(scenario::build_scenario("churn(n=-1)", opts, &error));
  EXPECT_NE(error.find("-1"), std::string::npos);

  error.clear();
  EXPECT_FALSE(scenario::build_scenario(
      "churn(n=99999999999999999999999)", opts, &error));
  EXPECT_FALSE(error.empty());

  // A remap window must fit the registry's node cap (well inside the
  // 32-bit node-id space), not silently truncate the offset.
  error.clear();
  EXPECT_FALSE(scenario::build_scenario(
      "remap(churn(n=8, rounds=4), offset=4294967296)", opts, &error));
  EXPECT_NE(error.find("node cap"), std::string::npos) << error;

  // Node-count and delay ceilings fire before any O(n) allocation.
  for (const char* huge :
       {"churn(n=18446744073709551615, rounds=1)",
        "sessions(n=999999999999)", "flicker(n=999999999999)",
        "flicker(n=8, repeats=1000000)",  // script materializes per repeat
        "membership-lb(t=18446744073709551615)", "cycle-lb(d=99999999999)",
        "jitter(churn(n=8), delay=99999999999)",
        "remap(churn(n=18446744073709551615, rounds=1), offset=1)"}) {
    error.clear();
    EXPECT_FALSE(scenario::build_scenario(huge, opts, &error)) << huge;
    EXPECT_FALSE(error.empty()) << huge;
  }

  // A duplicate key is a silently ignored override waiting to happen.
  error.clear();
  EXPECT_FALSE(
      scenario::build_scenario("churn(n=8, n=16, rounds=4)", opts, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(RegistryTest, FuzzMutatedSpecsNeverCrashTheRegistry) {
  // The spec-grammar fuzzer (the detector registry runs the same harness
  // in detect_test.cpp): corrupt every catalog example one character at a
  // time, the way the PR 3 trace fuzzer corrupts traces.  The registry
  // must reject cleanly (parse or parameter error with a message) or
  // build a workload whose canonical spec round-trips -- never crash.
  scenario::ScenarioOptions opts;
  opts.n = 16;
  opts.quick = true;
  Rng rng(0x5CEAF122);
  const std::string_view alphabet = "()=,+-0123456789abkmnrstz_ .";
  for (const auto& info : scenario::scenario_catalog()) {
    for (int iter = 0; iter < 60; ++iter) {
      const std::string mutated =
          testing::mutate_one_char(rng, info.example, alphabet);
      std::string error;
      auto built = scenario::build_scenario(mutated, opts, &error);
      if (!built.has_value()) {
        EXPECT_FALSE(error.empty()) << "mutation '" << mutated << "'";
        continue;
      }
      // The built spec must stay inside the grammar.  (Composite
      // expansions are grammatical but not canonically ordered, so the
      // invariant is to_string-idempotence, not string identity.)
      const auto parsed = scenario::parse_spec(built->spec);
      ASSERT_TRUE(parsed.has_value()) << "mutation '" << mutated << "'";
      const std::string canonical = scenario::to_string(*parsed);
      const auto reparsed = scenario::parse_spec(canonical);
      ASSERT_TRUE(reparsed.has_value()) << "mutation '" << mutated << "'";
      EXPECT_EQ(scenario::to_string(*reparsed), canonical)
          << "mutation '" << mutated << "'";
    }
  }
}

TEST(RegistryTest, SameSpecSameSeedIsBitIdentical) {
  scenario::ScenarioOptions opts;
  opts.quick = true;
  const char* spec = "multi-community-churn";
  std::vector<std::vector<std::vector<EdgeEvent>>> streams;
  for (int run = 0; run < 2; ++run) {
    auto built = scenario::build_scenario(spec, opts);
    ASSERT_TRUE(built.has_value());
    net::RecordingWorkload recorder(*built->workload);
    net::Simulator sim(built->nodes, net::store_of<core::TriangleNode>());
    net::run_workload(sim, recorder, 200000);
    streams.push_back(recorder.rounds());
  }
  EXPECT_EQ(streams[0], streams[1]);
}

// ------------------------------------------- combinator equivalence laws ----

/// Runs `workload` against a fresh simulator, recording the emitted event
/// stream; returns (stream, metrics-bearing simulator).
struct RecordedRun {
  std::vector<std::vector<EdgeEvent>> rounds;
  std::uint64_t changes = 0;
  std::uint64_t messages = 0;
  std::uint64_t inconsistent_rounds = 0;
  std::vector<Edge> final_edges;  // keys only: re-timed runs differ in stamps
};

RecordedRun record_run(net::Workload& workload, std::size_t n) {
  net::RecordingWorkload recorder(workload);
  net::Simulator sim(n, net::store_of<core::TriangleNode>());
  net::run_workload(sim, recorder, 200000);
  RecordedRun r;
  r.rounds = recorder.rounds();
  r.changes = sim.metrics().changes();
  r.messages = sim.metrics().messages();
  r.inconsistent_rounds = sim.metrics().inconsistent_rounds();
  for (const auto& [edge, ts] : sim.graph().edges()) {
    r.final_edges.push_back(edge);
  }
  return r;
}

dynamics::PlantedParams small_planted() {
  dynamics::PlantedParams pp;
  pp.n = 24;
  pp.k = 4;
  pp.plants = 2;
  pp.noise_per_round = 1;
  pp.rebuild_period = 10;
  pp.rounds = 80;
  pp.seed = 0x5CE1;
  return pp;
}

TEST(CombinatorEquivalence, OverlayOfSinglePlantedCliqueIsIdentity) {
  const auto pp = small_planted();
  dynamics::PlantedCliqueWorkload plain(pp);
  const RecordedRun a = record_run(plain, pp.n);

  std::vector<std::unique_ptr<net::Workload>> parts;
  parts.push_back(std::make_unique<dynamics::PlantedCliqueWorkload>(pp));
  scenario::OverlayWorkload overlay(std::move(parts));
  const RecordedRun b = record_run(overlay, pp.n);

  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.inconsistent_rounds, b.inconsistent_rounds);
  EXPECT_EQ(a.final_edges, b.final_edges);
  EXPECT_EQ(overlay.dropped(), 0u);
}

TEST(CombinatorEquivalence, UnlimitedThrottleIsIdentity) {
  dynamics::RandomChurnParams cp;
  cp.n = 20;
  cp.target_edges = 30;
  cp.max_changes = 5;
  cp.rounds = 90;
  cp.seed = 0x7541;
  dynamics::RandomChurnWorkload plain(cp);
  const RecordedRun a = record_run(plain, cp.n);

  scenario::ThrottleWorkload throttled(
      std::make_unique<dynamics::RandomChurnWorkload>(cp),
      scenario::ThrottleWorkload::kUnlimited);
  const RecordedRun b = record_run(throttled, cp.n);

  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.final_edges, b.final_edges);
  EXPECT_EQ(throttled.dropped(), 0u);
  EXPECT_EQ(throttled.backlog(), 0u);
}

TEST(CombinatorEquivalence, ThrottlePreservesEventOrderUnderTinyCap) {
  // A deterministic script (blind to the lagged graph) throttled at one
  // change per round: every batch has at most one event, the concatenated
  // stream is exactly the original, and the final graph matches the
  // unthrottled run.
  std::vector<std::vector<EdgeEvent>> script{
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(1, 2),
       EdgeEvent::insert(2, 3)},
      {EdgeEvent::insert(0, 2), EdgeEvent::remove(0, 1)},
      {},
      {EdgeEvent::insert(0, 1), EdgeEvent::remove(2, 3)},
  };
  std::vector<EdgeEvent> flat;
  for (const auto& b : script) flat.insert(flat.end(), b.begin(), b.end());

  net::ScriptedWorkload plain(script);
  const RecordedRun a = record_run(plain, 6);

  scenario::ThrottleWorkload throttled(
      std::make_unique<net::ScriptedWorkload>(script), 1);
  const RecordedRun b = record_run(throttled, 6);

  std::vector<EdgeEvent> emitted;
  for (const auto& batch : b.rounds) {
    EXPECT_LE(batch.size(), 1u);
    emitted.insert(emitted.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(emitted, flat);
  EXPECT_EQ(a.final_edges, b.final_edges);
  EXPECT_EQ(throttled.peak_backlog(), 4u);
}

TEST(CombinatorEquivalence, SequenceRoundCountAccounting) {
  // Stage lengths 3 and 2: the sequence must feed exactly 3 rounds to the
  // first stage, then exactly 2 to the second, and report finished.
  std::vector<std::vector<EdgeEvent>> first{
      {EdgeEvent::insert(0, 1)}, {EdgeEvent::insert(1, 2)}, {}};
  std::vector<std::vector<EdgeEvent>> second{{EdgeEvent::insert(2, 3)}, {}};
  std::vector<std::unique_ptr<net::Workload>> stages;
  stages.push_back(std::make_unique<net::ScriptedWorkload>(first));
  stages.push_back(std::make_unique<net::ScriptedWorkload>(second));
  scenario::SequenceWorkload seq(std::move(stages));

  net::Simulator sim(6, net::store_of<core::TriangleNode>());
  const std::size_t rounds = net::run_workload(sim, seq, 100000);
  EXPECT_TRUE(seq.finished());
  EXPECT_EQ(seq.rounds_fed(0), 3u);
  EXPECT_EQ(seq.rounds_fed(1), 2u);
  EXPECT_EQ(seq.gap_rounds(), 0u);
  EXPECT_GE(rounds, 5u);  // 5 fed rounds plus the trailing drain
  EXPECT_TRUE(sim.all_consistent());
}

TEST(CombinatorEquivalence, SequenceStabilizeBetweenInsertsGapRounds) {
  std::vector<std::vector<EdgeEvent>> first{
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(1, 2),
       EdgeEvent::insert(0, 2)}};
  std::vector<std::vector<EdgeEvent>> second{{EdgeEvent::remove(0, 1)}};
  std::vector<std::unique_ptr<net::Workload>> stages;
  stages.push_back(std::make_unique<net::ScriptedWorkload>(first));
  stages.push_back(std::make_unique<net::ScriptedWorkload>(second));
  scenario::SequenceWorkload seq(std::move(stages),
                                 /*stabilize_between=*/true);

  net::Simulator sim(6, net::store_of<core::TriangleNode>());
  net::run_workload(sim, seq, 100000);
  EXPECT_TRUE(seq.finished());
  EXPECT_EQ(seq.rounds_fed(0), 1u);
  EXPECT_EQ(seq.rounds_fed(1), 1u);
  // The triangle insertions take >= 1 round to settle, so the second stage
  // cannot have started immediately: quiet gap rounds were inserted.
  EXPECT_GT(seq.gap_rounds(), 0u);
  EXPECT_TRUE(sim.all_consistent());
}

TEST(CombinatorEquivalence, RemapShiftsIntoWindowAndStaysApplicable) {
  // Random churn (which *reads the observed graph*) remapped by +7: the
  // shadow graph must keep it coherent, every emitted edge must land in
  // the [7, 7+20) window, and the run must stay applicable (the simulator
  // aborts on inapplicable batches).
  dynamics::RandomChurnParams cp;
  cp.n = 20;
  cp.target_edges = 30;
  cp.max_changes = 5;
  cp.rounds = 90;
  cp.seed = 0x0FF5;

  dynamics::RandomChurnWorkload plain(cp);
  const RecordedRun a = record_run(plain, cp.n);

  scenario::RemapWorkload remapped(
      std::make_unique<dynamics::RandomChurnWorkload>(cp), 7, cp.n);
  EXPECT_EQ(remapped.nodes_required(), 27u);
  const RecordedRun b = record_run(remapped, remapped.nodes_required());

  // Same stream, shifted: the shadow graph makes the inner workload blind
  // to the translation.
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    ASSERT_EQ(a.rounds[r].size(), b.rounds[r].size()) << "round " << r;
    for (std::size_t i = 0; i < a.rounds[r].size(); ++i) {
      const EdgeEvent& orig = a.rounds[r][i];
      const EdgeEvent& shifted = b.rounds[r][i];
      EXPECT_EQ(shifted.kind, orig.kind);
      EXPECT_EQ(shifted.edge.lo(), orig.edge.lo() + 7);
      EXPECT_EQ(shifted.edge.hi(), orig.edge.hi() + 7);
      EXPECT_GE(shifted.edge.lo(), 7u);
      EXPECT_LT(shifted.edge.hi(), 27u);
    }
  }
}

TEST(CombinatorEquivalence, JitterIsDeterministicAndZeroDelayIsIdentity) {
  dynamics::RandomChurnParams cp;
  cp.n = 16;
  cp.target_edges = 24;
  cp.max_changes = 4;
  cp.rounds = 60;
  cp.seed = 0x11F7;

  // delay=0 is the identity.
  dynamics::RandomChurnWorkload plain(cp);
  const RecordedRun a = record_run(plain, cp.n);
  scenario::JitterWorkload zero(
      std::make_unique<dynamics::RandomChurnWorkload>(cp), 0, 99);
  const RecordedRun b = record_run(zero, cp.n);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(zero.dropped(), 0u);

  // Same seed => bit-identical jittered streams (and applicable ones: the
  // runs complete without tripping the simulator's batch validation).
  std::vector<std::vector<std::vector<EdgeEvent>>> streams;
  for (int run = 0; run < 2; ++run) {
    scenario::JitterWorkload jittered(
        std::make_unique<dynamics::RandomChurnWorkload>(cp), 3, 0xA11CE);
    streams.push_back(record_run(jittered, cp.n).rounds);
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_NE(streams[0], a.rounds);  // it really did reorder something
}

TEST(CombinatorEquivalence, SequenceSanitizesStagesBlindToEarlierLeftovers) {
  // Regression: stage 2's remap shadow graph starts empty while the real
  // window still holds stage 1's edges, so stage 2 can emit inserts of
  // already-present edges -- the sequence must drop those instead of
  // handing the simulator an inapplicable batch (which aborts).
  scenario::ScenarioOptions opts;
  opts.quick = true;
  std::string error;
  auto built = scenario::build_scenario(
      "seq(remap(churn(n=8, rounds=20, seed=1), offset=0), "
      "remap(churn(n=8, rounds=20, seed=2), offset=0))",
      opts, &error);
  ASSERT_TRUE(built.has_value()) << error;
  net::Simulator sim(built->nodes, net::store_of<core::TriangleNode>());
  net::run_workload(sim, *built->workload, 100000);
  EXPECT_TRUE(built->workload->finished());
  EXPECT_TRUE(sim.all_consistent());
}

TEST(CombinatorEquivalence, JitterNeverInvertsSameEdgeEvents) {
  // Regression: a delete drawn a shorter delay than its own insert must
  // not slide in front of it (it would be dropped as a "no-op" and the
  // edge would survive forever).  Toggle one edge many times under every
  // delay, across many seeds: the jittered stream must keep each edge's
  // alternation, so the final graph must equal the inner workload's final
  // graph -- here, edge deleted.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (std::size_t delay : {1u, 2u, 5u}) {
      std::vector<std::vector<EdgeEvent>> script;
      for (int i = 0; i < 10; ++i) {
        script.push_back({EdgeEvent::insert(0, 1), EdgeEvent::insert(2, 3)});
        script.push_back({EdgeEvent::remove(0, 1), EdgeEvent::remove(2, 3)});
      }
      scenario::JitterWorkload jittered(
          std::make_unique<net::ScriptedWorkload>(script), delay, seed);
      const RecordedRun r = record_run(jittered, 5);
      EXPECT_TRUE(r.final_edges.empty())
          << "seed " << seed << " delay " << delay << ": a delete was "
          << "reordered before its insert and dropped";
      EXPECT_EQ(jittered.dropped(), 0u)
          << "seed " << seed << " delay " << delay;
      EXPECT_EQ(r.changes, 40u) << "seed " << seed << " delay " << delay;
    }
  }
}

TEST(CombinatorEquivalence, OverlayResolvesCrossPartConflictsDeterministically) {
  // Both parts insert {0,1} in round 1; part order decides, the duplicate
  // is dropped, and the batch stays applicable.
  std::vector<std::vector<EdgeEvent>> s1{{EdgeEvent::insert(0, 1)},
                                         {EdgeEvent::remove(0, 1)}};
  std::vector<std::vector<EdgeEvent>> s2{
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(2, 3)},
      {EdgeEvent::insert(0, 1)}};
  std::vector<std::unique_ptr<net::Workload>> parts;
  parts.push_back(std::make_unique<net::ScriptedWorkload>(s1));
  parts.push_back(std::make_unique<net::ScriptedWorkload>(s2));
  scenario::OverlayWorkload overlay(std::move(parts));

  const RecordedRun r = record_run(overlay, 6);
  ASSERT_GE(r.rounds.size(), 2u);
  // Round 1: {0,1} once (first part wins), plus {2,3}.
  EXPECT_EQ(r.rounds[0],
            (std::vector<EdgeEvent>{EdgeEvent::insert(0, 1),
                                    EdgeEvent::insert(2, 3)}));
  // Round 2: part 1 deletes {0,1}; part 2's re-insert of the same edge in
  // the same round is a conflict and is dropped.
  EXPECT_EQ(r.rounds[1], (std::vector<EdgeEvent>{EdgeEvent::remove(0, 1)}));
  EXPECT_EQ(overlay.dropped(), 2u);
}

}  // namespace
}  // namespace dynsub
