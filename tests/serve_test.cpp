// Tests for the serve layer: the scripted-request parser, the bounded
// queue and both backpressure policies, the round-barrier answer
// invariants (SimClock determinism across thread counts and across
// record/replay), kInconsistent answers under chaos faults with
// re-convergence, and the threaded Server (no deadlock under kBlock --
// the CI tsan leg runs this suite).  Also pins the Session::recorded()
// split-run guarantee the serve layer's record/replay story depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "net/faults.hpp"
#include "net/workload.hpp"
#include "serve/clock.hpp"
#include "serve/export.hpp"
#include "serve/loop.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace dynsub {
namespace {

detect::Session scenario_session(const std::string& scenario,
                                 std::size_t threads = 0,
                                 bool record = false,
                                 const net::FaultPlan& faults = {}) {
  detect::SessionOptions opts;
  opts.detector = "triangle";
  opts.scenario = scenario;
  opts.record = record;
  opts.sim = {.sparse_rounds = true,
              .collect_phase_timings = false,
              .threads = threads,
              .faults = faults};
  std::string error;
  auto session = detect::Session::open(std::move(opts), &error);
  if (!session.has_value()) {
    ADD_FAILURE() << "Session::open failed: " << error;
    std::abort();  // the tests below cannot run without a session
  }
  return std::move(*session);
}

struct ScriptedRun {
  std::string stream;  // every Response through to_line, newline-joined
  std::vector<serve::Response> responses;
  serve::ServeStats stats;
  std::size_t rounds = 0;
};

ScriptedRun run_scripted(detect::Session& session,
                         const serve::RequestScript& script,
                         serve::ServeConfig cfg = {}) {
  serve::SimClock clock;
  serve::ServeLoop loop(session, clock, cfg);
  ScriptedRun out;
  out.rounds = loop.run(script, [&](const serve::Response& r) {
    out.stream += serve::to_line(r);
    out.stream += '\n';
    out.responses.push_back(r);
  });
  out.stats = loop.stats();
  return out;
}

serve::ScriptedRequest query_at(Round round, NodeId node, NodeId a,
                                NodeId b) {
  serve::ScriptedRequest e;
  e.round = round;
  e.request.kind = serve::RequestKind::kQuery;
  e.request.node = node;
  e.request.query = detect::EdgeQuery{Edge{a, b}};
  return e;
}

serve::Request make_query(NodeId node, NodeId a, NodeId b) {
  serve::Request req;
  req.kind = serve::RequestKind::kQuery;
  req.node = node;
  req.query = detect::EdgeQuery{Edge{a, b}};
  return req;
}

// ------------------------------------------------------- script parser ----

TEST(RequestScriptTest, ParsesEveryVerbAndKeepsOrder) {
  const std::string text =
      "# comment line\n"
      "\n"
      "@3 query 0 edge 0:1\n"
      "@3 query 4 triangle 2 7\n"
      "@5 query 1 clique 2 3 4\n"
      "@5 query 2 cycle 2 3 4 5\n"
      "@8 list 0 triangle\n"
      "@9 audit\n";
  std::string error;
  const auto script = serve::parse_request_script(text, &error);
  ASSERT_TRUE(script.has_value()) << error;
  ASSERT_EQ(script->entries.size(), 6u);
  EXPECT_EQ(script->entries[0].round, 3);
  EXPECT_EQ(script->entries[0].request.kind, serve::RequestKind::kQuery);
  const auto* eq =
      std::get_if<detect::EdgeQuery>(&script->entries[0].request.query);
  ASSERT_NE(eq, nullptr);
  EXPECT_EQ(eq->e, Edge(0, 1));
  const auto* tq =
      std::get_if<detect::TriangleQuery>(&script->entries[1].request.query);
  ASSERT_NE(tq, nullptr);
  EXPECT_EQ(tq->u, 2u);
  EXPECT_EQ(tq->w, 7u);
  const auto* cq =
      std::get_if<detect::CliqueQuery>(&script->entries[2].request.query);
  ASSERT_NE(cq, nullptr);
  EXPECT_EQ(cq->others, (std::vector<NodeId>{2, 3, 4}));
  const auto* yq =
      std::get_if<detect::CycleQuery>(&script->entries[3].request.query);
  ASSERT_NE(yq, nullptr);
  EXPECT_EQ(yq->cycle, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(script->entries[4].request.kind, serve::RequestKind::kList);
  EXPECT_EQ(script->entries[4].request.list_kind,
            detect::QueryKind::kTriangle);
  EXPECT_EQ(script->entries[5].request.kind, serve::RequestKind::kAudit);
  EXPECT_EQ(script->entries[5].round, 9);
}

TEST(RequestScriptTest, RejectsMalformedLines) {
  const char* bad[] = {
      "@0 query 0 edge 0:1",        // rounds start at 1
      "@1 query 0 edge 1:1",        // self-edge
      "@1 query 0 edge 0-1",        // wrong separator
      "@2 query 0 edge 0:1\n@1 audit",  // decreasing rounds
      "@1 frobnicate 0",            // unknown verb
      "@1 query 0 cycle 1 2 3",     // cycles are size 4 or 5
      "@1 query 0 triangle 5",      // triangle wants two vertices
      "@1 query 0 triangle 5 5",    // ... distinct ones
      "@1 list 0",                  // missing listing kind
      "@1 query x edge 0:1",        // unparsable node id
      "query 0 edge 0:1",           // missing @round
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(serve::parse_request_script(text, &error).has_value())
        << "accepted: " << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// ---------------------------------------------------------------- queue ----

TEST(RequestQueueTest, FifoOrderAndCounters) {
  serve::RequestQueue q({.capacity = 4,
                         .policy = serve::OverflowPolicy::kShed});
  for (std::uint64_t id = 1; id <= 3; ++id) {
    serve::Request req = make_query(0, 0, 1);
    req.id = id;
    EXPECT_TRUE(q.try_submit(req));
  }
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.peak_depth(), 3u);
  EXPECT_EQ(q.accepted_total(), 3u);
  std::vector<serve::Request> out;
  EXPECT_EQ(q.drain(out, 2), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 2u);
  EXPECT_EQ(q.depth(), 1u);
  out.clear();
  EXPECT_EQ(q.drain(out), 1u);
  EXPECT_EQ(out[0].id, 3u);
  EXPECT_EQ(q.peak_depth(), 3u);  // peak survives the drain
}

TEST(RequestQueueTest, ShedPolicyRefusesWhenFullAndCounts) {
  serve::RequestQueue q({.capacity = 2,
                         .policy = serve::OverflowPolicy::kShed});
  EXPECT_TRUE(q.submit(make_query(0, 0, 1)));
  EXPECT_TRUE(q.submit(make_query(1, 1, 2)));
  EXPECT_FALSE(q.submit(make_query(2, 2, 3)));  // full: refused + counted
  EXPECT_EQ(q.shed_total(), 1u);
  EXPECT_FALSE(q.try_submit(make_query(3, 3, 4)));  // refused, NOT counted
  EXPECT_EQ(q.shed_total(), 1u);
  EXPECT_EQ(q.accepted_total(), 2u);
}

TEST(RequestQueueTest, CloseRefusesSubmissions) {
  serve::RequestQueue q({.capacity = 2,
                         .policy = serve::OverflowPolicy::kBlock});
  EXPECT_TRUE(q.submit(make_query(0, 0, 1)));
  q.close();
  EXPECT_FALSE(q.submit(make_query(1, 1, 2)));  // refused, no block
  std::vector<serve::Request> out;
  EXPECT_EQ(q.drain(out), 1u);  // already-queued work still drains
}

// ----------------------------------------------- barrier determinism ----

serve::RequestScript mixed_script() {
  serve::RequestScript script;
  script.entries.push_back(query_at(5, 0, 0, 1));
  script.entries.push_back(query_at(5, 3, 3, 4));
  {
    serve::ScriptedRequest e;
    e.round = 12;
    e.request.kind = serve::RequestKind::kQuery;
    e.request.node = 2;
    e.request.query = detect::TriangleQuery{5, 9};
    script.entries.push_back(e);
  }
  {
    serve::ScriptedRequest e;
    e.round = 20;
    e.request.kind = serve::RequestKind::kList;
    e.request.node = 1;
    e.request.list_kind = detect::QueryKind::kTriangle;
    script.entries.push_back(e);
  }
  {
    serve::ScriptedRequest e;
    e.round = 30;
    e.request.kind = serve::RequestKind::kAudit;
    script.entries.push_back(e);
  }
  return script;
}

TEST(ServeLoopTest, AnswerStreamIdenticalAcrossThreadCounts) {
  const std::string scenario = "churn(n=32, rounds=60, seed=5)";
  const serve::RequestScript script = mixed_script();
  std::optional<std::string> reference;
  for (const std::size_t threads : {0u, 2u, 4u}) {
    detect::Session session = scenario_session(scenario, threads);
    const ScriptedRun run = run_scripted(session, script);
    EXPECT_EQ(run.stats.answered, script.entries.size());
    if (!reference) {
      reference = run.stream;
    } else {
      EXPECT_EQ(run.stream, *reference) << "threads=" << threads;
    }
  }
}

TEST(ServeLoopTest, AnswerStreamIdenticalAcrossRecordReplay) {
  const serve::RequestScript script = mixed_script();
  detect::Session original =
      scenario_session("churn(n=32, rounds=60, seed=7)", 0, /*record=*/true);
  const ScriptedRun first = run_scripted(original, script);
  ASSERT_FALSE(original.recorded().empty());

  detect::SessionOptions opts;
  opts.detector = "triangle";
  opts.sim = {.sparse_rounds = true,
              .collect_phase_timings = false,
              .threads = 0,
              .faults = {}};
  std::string error;
  auto replayed = detect::Session::open(
      std::move(opts),
      std::make_unique<net::ScriptedWorkload>(original.recorded()),
      original.nodes(), &error);
  ASSERT_TRUE(replayed.has_value()) << error;
  const ScriptedRun second = run_scripted(*replayed, script);
  EXPECT_EQ(first.stream, second.stream);
}

TEST(ServeLoopTest, SimClockLatenciesAreWholeTicks) {
  detect::Session session = scenario_session("churn(n=16, rounds=40, seed=2)");
  const ScriptedRun run = run_scripted(session, mixed_script());
  ASSERT_FALSE(run.responses.empty());
  for (const serve::Response& r : run.responses) {
    EXPECT_EQ(r.status, serve::Status::kOk);
    EXPECT_GE(r.latency_ns, serve::SimClock::kDefaultTickNs);
    EXPECT_EQ(r.latency_ns % serve::SimClock::kDefaultTickNs, 0u);
    EXPECT_GE(r.round, r.arrival_round);
  }
}

// ------------------------------------------------ chaos / inconsistency ----

TEST(ServeLoopTest, ChaosAnswersInconsistentThenReconverges) {
  std::string error;
  const auto plan = net::parse_fault_plan(
      "chaos(seed=7, kill_lane=0, kill_from=3, kill_until=6)", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const std::size_t n = 16;
  detect::Session session =
      scenario_session("churn(n=16, rounds=30, seed=9)", 2, false, *plan);

  // Probe every node mid-outage, then again long after the workload and
  // the outage have ended: the degraded nodes must answer kInconsistent
  // during the kill window and definitively once re-converged.
  serve::RequestScript script;
  for (std::size_t v = 0; v < n; ++v) {
    script.entries.push_back(query_at(
        5, static_cast<NodeId>(v), static_cast<NodeId>(v),
        static_cast<NodeId>((v + 1) % n)));
  }
  for (std::size_t v = 0; v < n; ++v) {
    script.entries.push_back(query_at(
        80, static_cast<NodeId>(v), static_cast<NodeId>(v),
        static_cast<NodeId>((v + 1) % n)));
  }
  const ScriptedRun run = run_scripted(session, script);
  ASSERT_EQ(run.responses.size(), 2 * n);
  std::size_t inconsistent_during = 0, inconsistent_after = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (run.responses[i].answer == net::Answer::kInconsistent) {
      ++inconsistent_during;
    }
    if (run.responses[n + i].answer == net::Answer::kInconsistent) {
      ++inconsistent_after;
    }
  }
  EXPECT_GT(inconsistent_during, 0u)
      << "no degraded node answered kInconsistent during the outage";
  EXPECT_EQ(inconsistent_after, 0u)
      << "a node was still inconsistent long after the outage ended";
  EXPECT_TRUE(session.settled());
}

TEST(ServeLoopTest, MalformedOrUnsupportedRequestsAreRefusedNotFatal) {
  detect::Session session = scenario_session("churn(n=16, rounds=20, seed=1)");
  serve::RequestScript script;
  script.entries.push_back(query_at(3, 99, 0, 1));  // node out of range
  {
    serve::ScriptedRequest e;  // valid shape, but the triangle detector
    e.round = 3;               // does not support cycle queries
    e.request.node = 2;
    e.request.query = detect::CycleQuery{{2, 3, 4, 5}};
    script.entries.push_back(e);
  }
  {
    serve::ScriptedRequest e;  // queried node not on the cycle
    e.round = 3;
    e.request.node = 1;
    e.request.query = detect::CycleQuery{{2, 3, 4, 5}};
    script.entries.push_back(e);
  }
  {
    serve::ScriptedRequest e;  // listing kind the detector cannot serve
    e.round = 3;
    e.request.kind = serve::RequestKind::kList;
    e.request.node = 0;
    e.request.list_kind = detect::QueryKind::kCycle5;
    script.entries.push_back(e);
  }
  const ScriptedRun run = run_scripted(session, script);
  ASSERT_EQ(run.responses.size(), 4u);
  for (const serve::Response& r : run.responses) {
    EXPECT_EQ(r.status, serve::Status::kOk);
    EXPECT_EQ(r.answer, net::Answer::kInconsistent);
    EXPECT_FALSE(r.detail.empty());
  }
}

TEST(ServeLoopTest, EveryCatalogDetectorAnswersEveryVerb) {
  // One query, one list and one audit against every registry detector:
  // each gets exactly one status=ok answer.  A shape the detector does not
  // serve is refused as kInconsistent with a reason, and every audit --
  // the robust 3-hop ones read G_{i-1} -- passes.
  for (const detect::DetectorCatalogEntry& info : detect::detector_catalog()) {
    detect::SessionOptions opts;
    opts.detector = info.example;
    opts.scenario = "churn(n=16, rounds=10, seed=1)";
    std::string error;
    auto session = detect::Session::open(std::move(opts), &error);
    ASSERT_TRUE(session.has_value()) << info.example << ": " << error;
    serve::RequestScript script;
    script.entries.push_back(query_at(3, 0, 0, 1));
    {
      serve::ScriptedRequest e;
      e.round = 5;
      e.request.kind = serve::RequestKind::kList;
      e.request.node = 0;
      e.request.list_kind = detect::QueryKind::kTriangle;
      script.entries.push_back(e);
    }
    {
      serve::ScriptedRequest e;
      e.round = 8;
      e.request.kind = serve::RequestKind::kAudit;
      script.entries.push_back(e);
    }
    const ScriptedRun run = run_scripted(*session, script);
    ASSERT_EQ(run.responses.size(), 3u) << info.example;
    for (const serve::Response& r : run.responses) {
      EXPECT_EQ(r.status, serve::Status::kOk) << info.example;
    }
    const detect::Detector& det = session->detector();
    const bool supported[] = {det.supports_query(detect::QueryKind::kEdge),
                              det.supports_list(detect::QueryKind::kTriangle)};
    for (std::size_t i = 0; i < 2; ++i) {
      if (supported[i]) continue;
      EXPECT_EQ(run.responses[i].answer, net::Answer::kInconsistent)
          << info.example;
      EXPECT_FALSE(run.responses[i].detail.empty()) << info.example;
    }
    EXPECT_EQ(run.responses[2].answer, net::Answer::kTrue)
        << info.example << ": " << run.responses[2].detail;
  }
}

TEST(ServeLoopTest, EveryMalformedShapeIsRefusedByEveryCatalogDetector) {
  // Each malformed query or listing, sent to every registry detector, is
  // answered (status ok) as kInconsistent with the detect layer's reason
  // in `detail`; the session's 16 nodes put 16 out of range.
  const NodeId v = 2;
  const std::vector<detect::Query> malformed_queries = {
      detect::TriangleQuery{v, 5},                 // self
      detect::TriangleQuery{5, 5},                 // u == w
      detect::CliqueQuery{{}},                     // no other members
      detect::CliqueQuery{{1, v, 3}},              // queried node inside
      detect::CycleQuery{{v, 3, 4}},               // 3 vertices
      detect::CycleQuery{{v, 3, 4, 5, 6, 7}},      // 6 vertices
      detect::CycleQuery{{3, 4, 5, 6}},            // v off the cycle
  };
  const detect::QueryKind kinds[] = {
      detect::QueryKind::kEdge, detect::QueryKind::kTriangle,
      detect::QueryKind::kClique, detect::QueryKind::kCycle4,
      detect::QueryKind::kCycle5};
  const detect::Query well_formed[] = {
      detect::EdgeQuery{Edge{v, 3}}, detect::TriangleQuery{3, 4},
      detect::CliqueQuery{{3, 4}}, detect::CycleQuery{{v, 3, 4, 5}},
      detect::CycleQuery{{v, 3, 4, 5, 6}}};
  for (const detect::DetectorCatalogEntry& info : detect::detector_catalog()) {
    detect::SessionOptions opts;
    opts.detector = info.example;
    opts.scenario = "churn(n=16, rounds=10, seed=1)";
    std::string error;
    auto session = detect::Session::open(std::move(opts), &error);
    ASSERT_TRUE(session.has_value()) << info.example << ": " << error;
    const detect::Detector& det = session->detector();
    serve::RequestScript script;
    auto query = [&](NodeId node, const detect::Query& q) {
      serve::ScriptedRequest e;
      e.round = 3;
      e.request.node = node;
      e.request.query = q;
      script.entries.push_back(e);
    };
    auto list = [&](NodeId node, detect::QueryKind kind) {
      serve::ScriptedRequest e;
      e.round = 3;
      e.request.kind = serve::RequestKind::kList;
      e.request.node = node;
      e.request.list_kind = kind;
      script.entries.push_back(e);
    };
    for (const detect::Query& q : malformed_queries) query(v, q);
    query(16, detect::EdgeQuery{Edge{0, 1}});
    list(16, detect::QueryKind::kEdge);
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
      if (!det.supports_query(kinds[i])) query(v, well_formed[i]);
      if (!det.supports_list(kinds[i])) list(v, kinds[i]);
    }
    const ScriptedRun run = run_scripted(*session, script);
    ASSERT_EQ(run.responses.size(), script.entries.size()) << info.example;
    for (std::size_t i = 0; i < run.responses.size(); ++i) {
      const serve::Response& r = run.responses[i];
      EXPECT_EQ(r.status, serve::Status::kOk) << info.example << " #" << i;
      EXPECT_EQ(r.answer, net::Answer::kInconsistent)
          << info.example << " #" << i;
      EXPECT_FALSE(r.detail.empty()) << info.example << " #" << i;
    }
  }
}

// ----------------------------------------------------------- backpressure ----

serve::RequestScript burst_script(std::size_t count, Round round) {
  serve::RequestScript script;
  for (std::size_t i = 0; i < count; ++i) {
    script.entries.push_back(query_at(
        round, static_cast<NodeId>(i), static_cast<NodeId>(i),
        static_cast<NodeId>(i + 1)));
  }
  return script;
}

TEST(ServeLoopTest, ShedPolicyShedsDeterministically) {
  serve::ServeConfig cfg;
  cfg.queue.capacity = 2;
  cfg.queue.policy = serve::OverflowPolicy::kShed;
  cfg.drain_budget = 1;
  const serve::RequestScript script = burst_script(5, 3);

  std::optional<std::string> reference;
  for (int repeat = 0; repeat < 2; ++repeat) {
    detect::Session session =
        scenario_session("churn(n=16, rounds=20, seed=4)");
    const ScriptedRun run = run_scripted(session, script, cfg);
    // 2 fit in the queue; the other 3 of the burst are refused inline.
    EXPECT_EQ(run.stats.shed, 3u);
    EXPECT_EQ(run.stats.answered, 2u);
    std::size_t shed_seen = 0;
    for (const serve::Response& r : run.responses) {
      if (r.status == serve::Status::kShed) {
        ++shed_seen;
        EXPECT_EQ(r.answer, net::Answer::kInconsistent);
        EXPECT_EQ(r.latency_ns, 0u);
      }
    }
    EXPECT_EQ(shed_seen, 3u);
    if (!reference) {
      reference = run.stream;
    } else {
      EXPECT_EQ(run.stream, *reference);
    }
  }
}

TEST(ServeLoopTest, BlockPolicyDelaysInsteadOfShedding) {
  serve::ServeConfig cfg;
  cfg.queue.capacity = 2;
  cfg.queue.policy = serve::OverflowPolicy::kBlock;
  cfg.drain_budget = 1;
  detect::Session session = scenario_session("churn(n=16, rounds=20, seed=4)");
  const ScriptedRun run = run_scripted(session, burst_script(5, 3), cfg);
  EXPECT_EQ(run.stats.shed, 0u);
  EXPECT_EQ(run.stats.answered, 5u);
  // With one answer per barrier and a stalled producer, answers land on
  // strictly increasing rounds -- the burst is spread, not dropped.
  for (std::size_t i = 1; i < run.responses.size(); ++i) {
    EXPECT_GT(run.responses[i].round, run.responses[i - 1].round);
  }
  // The blocked tail waited: its round-to-answer latency spans rounds.
  EXPECT_GT(run.responses.back().latency_ns,
            serve::SimClock::kDefaultTickNs);
}

// ------------------------------------------------------- threaded server ----

TEST(ServeServerTest, BlockedClientNeverDeadlocksTheBarrier) {
  detect::Session session =
      scenario_session("churn(n=16, rounds=200, seed=6)");
  serve::WallClock clock;
  serve::ServeConfig cfg;
  cfg.queue.capacity = 2;
  cfg.queue.policy = serve::OverflowPolicy::kBlock;
  serve::Server server(session, clock, cfg);
  server.start();
  constexpr std::size_t kRequests = 40;
  std::uint64_t refused = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    // Under kBlock this blocks when the queue is full; the engine keeps
    // draining barriers, so every submit eventually lands (refusals can
    // only happen after close, which has not been called yet).
    if (server.submit(make_query(static_cast<NodeId>(i % 16), 0, 1))) {
      ++refused;
    }
  }
  server.stop();
  EXPECT_EQ(refused, 0u);
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.answered, kRequests);
  EXPECT_EQ(server.take_responses().size(), kRequests);
}

TEST(ServeServerTest, StopAnswersEverythingStillQueued) {
  detect::Session session =
      scenario_session("churn(n=16, rounds=50, seed=8)");
  serve::WallClock clock;
  serve::ServeConfig cfg;
  cfg.queue.capacity = 64;
  serve::Server server(session, clock, cfg);
  server.start();
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(server.submit(make_query(static_cast<NodeId>(i), 0, 1)));
  }
  server.stop();
  EXPECT_EQ(server.stats().answered, 10u);
}

// ------------------------------------------------------- export schema ----

TEST(ServeExportTest, JsonlCarriesTheDocumentedKeysInOrder) {
  serve::Response r;
  r.id = 7;
  r.kind = serve::RequestKind::kList;
  r.status = serve::Status::kOk;
  r.node = 3;
  r.round = 12;
  r.answer = net::Answer::kTrue;
  r.list_count = 2;
  r.arrival_round = 11;
  r.arrival_ns = 10000;
  r.answer_ns = 12000;
  r.latency_ns = 2000;
  r.backlog = 1;
  const std::string line = serve::to_jsonl(r);
  EXPECT_EQ(line,
            "{\"req\":7,\"kind\":\"list\",\"status\":\"ok\",\"node\":3,"
            "\"round\":12,\"arrival_round\":11,\"arrival_ns\":10000,"
            "\"answer_ns\":12000,\"latency_ns\":2000,\"answer\":\"true\","
            "\"list_count\":2,\"backlog\":1}");
  // The shared key table is what dynsub_stats validates against; a drift
  // between the two is a schema break.
  std::size_t pos = 0;
  for (const char* key : serve::kServeRecordKeys) {
    const std::size_t at = line.find(std::string("\"") + key + "\":", pos);
    EXPECT_NE(at, std::string::npos) << key;
    pos = at;
  }
}

// ------------------------------------------- Session::recorded() seam ----

TEST(SessionRecordTest, SplitRunRecordsTheSameTraceAsOneRun) {
  const std::string scenario = "churn(n=24, rounds=40, seed=3)";
  detect::Session whole = scenario_session(scenario, 0, /*record=*/true);
  whole.run();
  const auto full_trace = whole.recorded();
  ASSERT_FALSE(full_trace.empty());

  // The same session driven in two pieces -- a few advance() calls, then
  // run() for the rest -- must record the identical trace; the interleaved
  // trailing rounds of neither call may shift later batches.
  detect::Session split = scenario_session(scenario, 0, /*record=*/true);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(split.advance().has_value());
  }
  split.run();
  EXPECT_EQ(split.recorded(), full_trace);
}

TEST(SessionRecordTest, QuietRoundsBetweenRecordedRoundsAreBackFilled) {
  const std::string scenario = "churn(n=16, rounds=10, seed=11)";
  detect::Session session = scenario_session(scenario, 0, /*record=*/true);
  session.run();                       // workload + trailing drain
  const std::size_t before = session.recorded().size();
  session.run_until_stable(5);         // unrecorded quiet rounds
  session.step({});                    // a recorded quiet round after them
  const auto& trace = session.recorded();
  // The quiet gap is back-filled: the final batch sits at index round-1.
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(session.sim().round()));
  EXPECT_GT(trace.size(), before);
  for (std::size_t i = before; i < trace.size(); ++i) {
    EXPECT_TRUE(trace[i].empty());
  }
}

}  // namespace
}  // namespace dynsub
