// Tests for the detector subsystem: the registry (names, strict typed
// params, spec fuzz), the idle node-program footprint, the uniform
// query/listing surface, kInconsistent propagation, and the Session facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "common/rng.hpp"
#include "core/robust3hop.hpp"
#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "net/workload.hpp"
#include "scenario/spec.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

detect::Session manual_session(std::string detector, std::size_t n) {
  detect::SessionOptions opts;
  opts.detector = std::move(detector);
  opts.n = n;
  std::string error;
  auto session = detect::Session::open(std::move(opts), &error);
  if (!session.has_value()) {
    ADD_FAILURE() << "Session::open failed: " << error;
    std::abort();  // the tests below cannot run without a session
  }
  return std::move(*session);
}

std::vector<EdgeEvent> inserts(
    std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  std::vector<EdgeEvent> out;
  for (const auto& [a, b] : edges) out.push_back(EdgeEvent::insert(a, b));
  return out;
}

// ------------------------------------------------------------- registry ----

TEST(DetectRegistryTest, CatalogIsSortedAndEveryExampleBuilds) {
  const auto& catalog = detect::detector_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    const auto& a = catalog[i - 1];
    const auto& b = catalog[i];
    EXPECT_TRUE(a.kind < b.kind || (a.kind == b.kind && a.name < b.name))
        << a.name << " vs " << b.name;
  }
  for (const auto& entry : catalog) {
    std::string error;
    const auto detector = detect::build_detector(entry.example, &error);
    ASSERT_NE(detector, nullptr) << entry.example << ": " << error;
    EXPECT_EQ(detector->info().problem, entry.problem) << entry.example;
    EXPECT_FALSE(detector->info().queries.empty()) << entry.example;
  }
}

TEST(DetectRegistryTest, CanonicalSpecRoundTrips) {
  for (const auto& entry : detect::detector_catalog()) {
    std::string error;
    const auto detector = detect::build_detector(entry.example, &error);
    ASSERT_NE(detector, nullptr) << error;
    const std::string& spec = detector->info().spec;
    // The canonical spec re-builds an identical detector.
    const auto again = detect::build_detector(spec, &error);
    ASSERT_NE(again, nullptr) << spec << ": " << error;
    EXPECT_EQ(again->info().spec, spec);
    // And it is grammatical: parse -> to_string is the identity on it.
    const auto node = scenario::parse_spec(spec, &error);
    ASSERT_TRUE(node.has_value()) << spec << ": " << error;
    EXPECT_EQ(scenario::to_string(*node), spec);
  }
}

TEST(DetectRegistryTest, UnknownDetectorNamesTheRegistry) {
  std::string error;
  EXPECT_EQ(detect::build_detector("no-such-detector", &error), nullptr);
  EXPECT_NE(error.find("unknown detector"), std::string::npos) << error;
  // The error *is* the registry: every name appears, so the CLI never
  // needs a hand-maintained list.
  for (const auto& entry : detect::detector_catalog()) {
    EXPECT_NE(error.find(entry.name), std::string::npos)
        << "missing " << entry.name << " in:\n" << error;
  }
}

TEST(DetectRegistryTest, ParamsAreStrictlyTyped) {
  const char* bad[] = {
      "triangle(kk=4)",        // unknown key
      "triangle(k=4, k=5)",    // duplicate key
      "triangle(k=x)",         // malformed integer
      "triangle(k=2)",         // below range
      "triangle(k=17)",        // above range
      "flood(radius=1)",       // below range
      "flood(radius=7)",       // above range
      "flood2(radius=2)",      // aliases take no parameters
      "robust2hop(k=3)",       // parameterless detector
      "robust3hop(dedup=0)",   // duplicate suppression is not a knob
      "triangle(k=4, churn)",  // detectors take no children
      "triangle(",             // grammar error
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_EQ(detect::build_detector(spec, &error), nullptr) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(DetectRegistryTest, AliasesExpandToParameterizedSpecs) {
  const auto flood2 = detect::build_detector("flood2");
  const auto flood_r2 = detect::build_detector("flood(radius=2)");
  ASSERT_NE(flood2, nullptr);
  ASSERT_NE(flood_r2, nullptr);
  EXPECT_EQ(flood2->info().spec, flood_r2->info().spec);
  EXPECT_EQ(flood2->info().spec, "flood(radius=2)");
}

// Satellite: the spec-grammar fuzzer extended to detector specs.  Corrupt
// every catalog example (plus a parameter-heavy spec) one character at a
// time, the same way the PR 3 trace fuzzer corrupts traces: the registry
// must reject cleanly or build a detector whose canonical spec round-trips
// -- never crash.
TEST(DetectRegistryTest, FuzzMutatedSpecsNeverCrashTheRegistry) {
  std::vector<std::string> seeds;
  for (const auto& entry : detect::detector_catalog()) {
    seeds.push_back(entry.example);
  }
  seeds.emplace_back("robust3hop(l2=1)");
  seeds.emplace_back("triangle(k=16)");

  Rng rng(0xDE7EC7F);
  const std::string_view alphabet = "()=,+-0123456789abkrz_ .";
  for (const std::string& seed : seeds) {
    for (int iter = 0; iter < 120; ++iter) {
      const std::string mutated =
          testing::mutate_one_char(rng, seed, alphabet);
      std::string error;
      const auto detector = detect::build_detector(mutated, &error);
      if (detector == nullptr) {
        EXPECT_FALSE(error.empty()) << "mutation '" << mutated << "'";
      } else {
        const auto canon = scenario::parse_spec(detector->info().spec);
        ASSERT_TRUE(canon.has_value()) << "mutation '" << mutated << "'";
        EXPECT_EQ(scenario::to_string(*canon), detector->info().spec);
      }
    }
  }
}

// ------------------------------------------------------------ footprint ----

// Every registry detector's factory builds its whole node store in O(1)
// allocations: the store object and one vector holding all n programs by
// value, and no idle program allocates on construction.  A heap object per
// program would make n allocations.
TEST(DetectFootprintTest, FactoriesBuildTheStoreInConstantAllocations) {
  constexpr std::size_t kNodes = 512;
  constexpr std::size_t kMaxAllocations = 2;
  for (const auto& entry : detect::detector_catalog()) {
    const auto detector = detect::build_detector(entry.example);
    ASSERT_NE(detector, nullptr) << entry.example;
    const net::NodeFactory factory = detector->factory();
    std::unique_ptr<net::NodeStore> store;
    std::size_t allocations = 0;
    {
      testing::AllocationCounter counter;
      store = factory(kNodes);
      allocations = counter.count();
    }
    ASSERT_NE(store, nullptr) << entry.example;
    EXPECT_EQ(store->size(), kNodes) << entry.example;
    EXPECT_LE(allocations, kMaxAllocations) << entry.example;
  }
}

// A robust 3-hop program keeps its discovery paths as its only per-edge
// state, in 12-byte keys of three hops; a per-node container added back
// (a count per edge, say) grows the inline program past the bound.
TEST(DetectFootprintTest, Robust3HopKeepsOnlyItsPathSet) {
  EXPECT_EQ(sizeof(core::PathKey), 12u);
  EXPECT_LE(sizeof(core::Robust3HopNode), 136u);
}

// A detector reaches its programs through one checked cast of the node
// store; a simulator built by another detector's factory is a caller bug
// and aborts, naming the query or the audit.
TEST(DetectFootprintTest, ForeignStoreAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto triangle = detect::build_detector("triangle");
  const net::Simulator sim(4, detect::build_detector("robust2hop")->factory());
  EXPECT_DEATH((void)triangle->query(sim, 0, detect::EdgeQuery{Edge(0, 1)}),
               "another factory");
  EXPECT_DEATH((void)triangle->audit(sim), "audit_triangle: wrong node type");
}

// ------------------------------------------------- uniform query surface ----

// The surface aborts on a malformed query with the very reason the serve
// loop answers a client with (detect::query_refusal).
TEST(DetectorSurfaceTest, MalformedQueryAbortsWithTheRefusalReason) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto triangle = detect::build_detector("triangle");
  const net::Simulator sim(4, triangle->factory());
  const detect::Query q = detect::TriangleQuery{0, 1};
  const char* why = detect::query_refusal(*triangle, sim.node_count(), 0, q);
  ASSERT_NE(why, nullptr);
  EXPECT_STREQ(why, "triangle vertices must be distinct non-self nodes");
  EXPECT_DEATH((void)triangle->query(sim, 0, q), why);
}

TEST(DetectorSurfaceTest, TriangleAnswersEveryDeclaredShape) {
  auto s = manual_session("triangle(k=4)", 6);
  // K4 on {0,1,2,3}.
  s.step(inserts({{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}));
  s.run_until_stable(200);
  ASSERT_TRUE(s.settled());

  EXPECT_EQ(s.query(0, detect::TriangleQuery{1, 2}), net::Answer::kTrue);
  EXPECT_EQ(s.query(0, detect::TriangleQuery{1, 4}), net::Answer::kFalse);
  EXPECT_EQ(s.query(0, detect::CliqueQuery{{1, 2, 3}}), net::Answer::kTrue);
  EXPECT_EQ(s.query(3, detect::CliqueQuery{{0, 1, 2}}), net::Answer::kTrue);
  EXPECT_EQ(s.query(0, detect::CliqueQuery{{1, 2, 4}}), net::Answer::kFalse);
  EXPECT_EQ(s.query(0, detect::EdgeQuery{Edge(0, 1)}), net::Answer::kTrue);
  EXPECT_EQ(s.query(0, detect::EdgeQuery{Edge(1, 2)}), net::Answer::kTrue);
  EXPECT_EQ(s.query(0, detect::EdgeQuery{Edge(0, 4)}), net::Answer::kFalse);

  // Listings are canonical sorted member tuples, self included.
  const auto triangles = s.list(0, detect::QueryKind::kTriangle);
  ASSERT_TRUE(triangles.has_value());
  EXPECT_EQ(triangles->size(), 3u);  // {0,1,2} {0,1,3} {0,2,3}
  EXPECT_TRUE(std::is_sorted(triangles->begin(), triangles->end()));
  const auto cliques = s.list(1, detect::QueryKind::kClique);
  ASSERT_TRUE(cliques.has_value());
  ASSERT_EQ(cliques->size(), 1u);
  EXPECT_EQ((*cliques)[0], (detect::SubgraphTuple{0, 1, 2, 3}));
}

TEST(DetectorSurfaceTest, Robust3HopAnswersCycleShapes) {
  auto s = manual_session("robust3hop", 8);
  // A 4-cycle 0-1-2-3 and a 5-cycle 0-1-4-5-6 sharing edge {0,1}.
  s.step(inserts({{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  s.run_until_stable(300);
  s.step(inserts({{1, 4}, {4, 5}, {5, 6}, {6, 0}}));
  s.run_until_stable(300);
  ASSERT_TRUE(s.settled());

  EXPECT_EQ(s.query(0, detect::CycleQuery{{0, 1, 2, 3}}), net::Answer::kTrue);
  EXPECT_EQ(s.query(0, detect::CycleQuery{{0, 1, 4, 5, 6}}),
            net::Answer::kTrue);
  EXPECT_EQ(s.query(0, detect::CycleQuery{{0, 1, 2, 6}}),
            net::Answer::kFalse);
  EXPECT_EQ(s.query(2, detect::EdgeQuery{Edge(0, 3)}), net::Answer::kTrue);

  const auto c4 = s.list(2, detect::QueryKind::kCycle4);
  ASSERT_TRUE(c4.has_value());
  ASSERT_EQ(c4->size(), 1u);
  EXPECT_EQ((*c4)[0], (detect::SubgraphTuple{0, 1, 2, 3}));
  const auto c5 = s.list(4, detect::QueryKind::kCycle5);
  ASSERT_TRUE(c5.has_value());
  ASSERT_EQ(c5->size(), 1u);
  EXPECT_EQ((*c5)[0], (detect::SubgraphTuple{0, 1, 4, 5, 6}));
}

TEST(DetectorSurfaceTest, EdgeListingsMatchEdgeQueries) {
  // For every detector that lists kEdge: list(v, kEdge) must be exactly
  // the set of edges query(v, EdgeQuery) answers kTrue -- the listing and
  // the query are two views of one maintained set.
  for (const char* spec :
       {"robust2hop", "robust3hop", "naive2hop", "full2hop", "flood2"}) {
    auto s = manual_session(spec, 8);
    s.step(inserts({{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}}));
    s.run_until_stable(500);
    ASSERT_TRUE(s.settled()) << spec;
    for (NodeId v = 0; v < 6; ++v) {
      const auto listed = s.list(v, detect::QueryKind::kEdge);
      ASSERT_TRUE(listed.has_value()) << spec;
      for (const auto& tuple : *listed) {
        ASSERT_EQ(tuple.size(), 2u);
        EXPECT_EQ(s.query(v, detect::EdgeQuery{Edge(tuple[0], tuple[1])}),
                  net::Answer::kTrue)
            << spec << " node " << v;
      }
      // And nothing outside the listing answers kTrue.
      std::size_t known = 0;
      for (NodeId a = 0; a < 8; ++a) {
        for (NodeId b = a + 1; b < 8; ++b) {
          known += s.query(v, detect::EdgeQuery{Edge(a, b)}) ==
                   net::Answer::kTrue;
        }
      }
      EXPECT_EQ(known, listed->size()) << spec << " node " << v;
    }
  }
}

// Satellite: net::Answer::kInconsistent must survive the uniform surface
// untouched.  Right after a topology change the touched nodes are still
// converging; every declared query shape must answer kInconsistent (not a
// coerced kTrue/kFalse), and list() must refuse with std::nullopt.
TEST(DetectorSurfaceTest, InconsistentIsNeverCoerced) {
  for (const auto& entry : detect::detector_catalog()) {
    auto s = manual_session(entry.example, 6);
    s.step(inserts({{0, 1}, {0, 2}, {1, 2}}));
    // No drain: node 0 has just seen incident events and is mid-protocol.
    ASSERT_FALSE(s.sim().consistency()[0]) << entry.example;

    const detect::Detector& d = s.detector();
    for (const auto kind : d.info().queries) {
      const detect::Query q = [&]() -> detect::Query {
        switch (kind) {
          case detect::QueryKind::kEdge:
            return detect::EdgeQuery{Edge(0, 1)};
          case detect::QueryKind::kTriangle:
            return detect::TriangleQuery{1, 2};
          case detect::QueryKind::kClique:
            return detect::CliqueQuery{{1, 2}};
          case detect::QueryKind::kCycle4:
            return detect::CycleQuery{{0, 1, 3, 2}};
          case detect::QueryKind::kCycle5:
            return detect::CycleQuery{{0, 1, 3, 4, 2}};
        }
        return detect::EdgeQuery{Edge(0, 1)};
      }();
      EXPECT_EQ(s.query(0, q), net::Answer::kInconsistent)
          << entry.example << " query kind "
          << std::string(to_string(kind));
    }
    for (const auto kind : d.info().listings) {
      EXPECT_FALSE(s.list(0, kind).has_value())
          << entry.example << " list kind " << std::string(to_string(kind));
    }
    // After stabilization the very same queries commit to true/false.
    s.run_until_stable(500);
    ASSERT_TRUE(s.settled()) << entry.example;
    EXPECT_NE(s.query(0, detect::EdgeQuery{Edge(0, 1)}),
              net::Answer::kInconsistent)
        << entry.example;
    for (const auto kind : d.info().listings) {
      EXPECT_TRUE(s.list(0, kind).has_value()) << entry.example;
    }
  }
}

// -------------------------------------------------------------- session ----

TEST(SessionTest, ScenarioRunAuditSummary) {
  detect::SessionOptions opts;
  opts.detector = "triangle";
  opts.scenario = "planted-clique(n=24, k=4, plants=2, rounds=60, seed=3)";
  std::string error;
  auto s = detect::Session::open(std::move(opts), &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(s->nodes(), 24u);
  EXPECT_EQ(s->scenario_spec(),
            "planted-clique(n=24, k=4, plants=2, rounds=60, seed=3)");

  const std::size_t rounds = s->run();
  EXPECT_GT(rounds, 0u);
  EXPECT_TRUE(s->settled());
  // The problem-appropriate oracle audit (triangle + cliques) passes.
  const auto violation = s->audit();
  EXPECT_FALSE(violation.has_value()) << *violation;

  const harness::RunSummary summary = s->summary();
  EXPECT_EQ(summary.n, 24u);
  EXPECT_GT(summary.changes, 0u);
  EXPECT_EQ(summary.rounds, static_cast<std::int64_t>(s->sim().round()));
}

TEST(SessionTest, AuditWorksForEveryCoreDetectorOnOneScenario) {
  // Every catalog entry, baselines and aliases included.
  for (const detect::DetectorCatalogEntry& info : detect::detector_catalog()) {
    const std::string& detector = info.example;
    detect::SessionOptions opts;
    opts.detector = detector;
    opts.scenario = "churn(n=16, target=24, max=3, rounds=40, seed=11)";
    std::string error;
    auto s = detect::Session::open(std::move(opts), &error);
    ASSERT_TRUE(s.has_value()) << detector << ": " << error;
    s->run();
    ASSERT_TRUE(s->settled()) << detector;
    const auto violation = s->audit();
    EXPECT_FALSE(violation.has_value()) << detector << ": " << *violation;
  }
}

TEST(SessionTest, RecordedRunReplaysToIdenticalSummary) {
  detect::SessionOptions opts;
  opts.detector = "robust2hop";
  opts.scenario = "churn(n=18, target=30, max=4, rounds=50, seed=5)";
  opts.record = true;
  std::string error;
  auto live = detect::Session::open(opts, &error);
  ASSERT_TRUE(live.has_value()) << error;
  live->run();
  ASSERT_FALSE(live->recorded().empty());

  detect::SessionOptions ropts;
  ropts.detector = "robust2hop";
  auto replay = detect::Session::open(
      std::move(ropts),
      std::make_unique<net::ScriptedWorkload>(live->recorded()),
      live->nodes(), &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_EQ(replay->scenario_spec(), "external");
  replay->run();

  const harness::RunSummary a = live->summary();
  const harness::RunSummary b = replay->summary();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.inconsistent_rounds, b.inconsistent_rounds);
}

TEST(SessionTest, OpenRejectsBadSpecsAndSizes) {
  std::string error;
  detect::SessionOptions opts;

  opts.detector = "no-such";
  EXPECT_FALSE(detect::Session::open(opts, &error).has_value());
  EXPECT_NE(error.find("unknown detector"), std::string::npos);

  opts.detector = "triangle";
  opts.scenario = "no-such-scenario";
  EXPECT_FALSE(detect::Session::open(opts, &error).has_value());
  EXPECT_NE(error.find("unknown scenario"), std::string::npos);

  opts.scenario.clear();
  opts.n = 0;  // manual sessions must be sized
  EXPECT_FALSE(detect::Session::open(opts, &error).has_value());
  EXPECT_NE(error.find("n > 0"), std::string::npos);

  opts.scenario = "churn(n=8)";
  auto with_workload = detect::Session::open(
      opts, std::make_unique<net::ScriptedWorkload>(
                std::vector<std::vector<EdgeEvent>>{}),
      4, &error);
  EXPECT_FALSE(with_workload.has_value());  // scenario + workload conflict
}

}  // namespace
}  // namespace dynsub
