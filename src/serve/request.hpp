// Request/response types of the serve layer, plus the scripted-request
// front end.
//
// A Request is one client call against the running session -- query(),
// list(), or audit() -- timestamped on arrival.  A Response is its answer,
// stamped with the round of the detector snapshot it was computed against:
// the serve loop only answers at round barriers, so an answer is exact as
// of that round, never torn across rounds.
//
// The scripted front end (RequestScript, read by `dynsub_run --requests`)
// is how CI and tests drive the serve loop deterministically: a plain-text
// file schedules requests by round,
//
//     # round-scheduled requests; rounds non-decreasing
//     @3 query 0 edge 0:1
//     @3 query 4 triangle 2 7
//     @5 query 1 clique 2 3 4
//     @5 query 2 cycle 2 3 4 5
//     @8 list 0 triangle
//     @9 audit
//
// and to_line() renders each Response as one deterministic text line -- the
// answer stream the smoke job byte-compares across thread counts and
// record/replay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "detect/detector.hpp"
#include "net/node.hpp"

namespace dynsub::serve {

enum class RequestKind : std::uint8_t { kQuery, kList, kAudit };

[[nodiscard]] const char* to_string(RequestKind kind);

/// One client call.  `query` is meaningful for kQuery, `list_kind` for
/// kList; `node` for both (audits are whole-network).  arrival_* are
/// stamped by the serve loop when the request is accepted.
struct Request {
  std::uint64_t id = 0;  // submission order, 1-based
  RequestKind kind = RequestKind::kQuery;
  NodeId node = 0;
  detect::Query query = detect::EdgeQuery{Edge{0, 1}};
  detect::QueryKind list_kind = detect::QueryKind::kEdge;
  std::uint64_t arrival_ns = 0;
  Round arrival_round = 0;
};

/// What happened to a request.  kOk answered against a snapshot; kShed is
/// the backpressure refusal -- the queue was full under the shed policy, so
/// the request was never evaluated and its `answer` is kInconsistent (the
/// model's honest "cannot say", exactly like querying a degraded node).
enum class Status : std::uint8_t { kOk, kShed };

[[nodiscard]] const char* to_string(Status status);

struct Response {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kQuery;
  Status status = Status::kOk;
  NodeId node = 0;
  /// The round of the snapshot this answer reflects (for kShed: the last
  /// round completed when the request was refused).
  Round round = 0;
  /// kQuery: the three-valued answer.  kList: kTrue when the listing was
  /// served, kInconsistent when the node refused (flag down).  kAudit:
  /// kTrue = pass, kFalse = violation.  kShed: always kInconsistent.
  /// A malformed or detector-unsupported request is also answered
  /// kInconsistent, with the refusal reason in `detail` -- a client must
  /// never be able to crash the daemon.
  net::Answer answer = net::Answer::kInconsistent;
  /// kList only: number of tuples in the served listing.
  std::uint64_t list_count = 0;
  /// kAudit failure text (empty otherwise; kept out of to_line so the
  /// answer stream stays single-line).
  std::string detail;
  /// The round in flight when the request arrived (always <= round).
  Round arrival_round = 0;
  std::uint64_t arrival_ns = 0;
  std::uint64_t answer_ns = 0;
  std::uint64_t latency_ns = 0;
  /// Queue depth left behind after this response was produced.
  std::uint64_t backlog = 0;
};

[[nodiscard]] const char* to_string(net::Answer answer);

/// The deterministic answer-stream line:
///   req=3 kind=query status=ok node=4 round=17 answer=true list_count=0
///   latency_ns=2000 backlog=1
[[nodiscard]] std::string to_line(const Response& r);

/// One scheduled request: submitted while round `round` is in flight and
/// therefore answered (or shed) at round `round`'s barrier.
struct ScriptedRequest {
  Round round = 1;
  Request request;
};

/// A parsed request schedule, rounds non-decreasing.
struct RequestScript {
  std::vector<ScriptedRequest> entries;
};

/// Parses the scripted-request format above.  Returns std::nullopt (and
/// sets `error` when given) on any malformed line: unknown verbs, missing
/// fields, rounds < 1 or decreasing, node/vertex ids that do not parse.
[[nodiscard]] std::optional<RequestScript> parse_request_script(
    const std::string& text, std::string* error = nullptr);

/// Parses one request body (the part after "@<round> "), shared by the
/// script parser and the stdin line protocol of `dynsub_run --stdin`.
/// Examples:
///   "query 0 edge 0:1", "list 2 triangle", "audit".
[[nodiscard]] std::optional<Request> parse_request_line(
    const std::string& line, std::string* error = nullptr);

}  // namespace dynsub::serve
