// The detector API: one type-erased query surface over every dynamic
// subgraph structure in the repo.
//
// The paper's deliverable is a *family* of queryable distributed data
// structures -- k-clique membership (Thm 1 / Cor 1), robust 2-/3-hop edge
// listing (Thms 7/6), 4-/5-cycle listing (Thm 5) -- plus the baselines the
// lower bounds are measured against.  Each is a concrete net::NodeProgram
// with bespoke member functions; a Detector wraps one of them behind a
// uniform model-shaped surface:
//
//   * structured metadata (name, problem kind, supported query shapes,
//     typed parameters such as clique-k baked in at build time),
//   * a NodeFactory for net::Simulator (it builds the node store),
//   * query(sim, v, Query): a Query variant answered with the paper's
//     three-valued net::Answer -- kInconsistent is never coerced,
//   * list(sim, v, QueryKind): the membership-listing side, returning
//     canonicalized subgraph tuples (and refusing, with std::nullopt,
//     while the node's consistency flag is down -- a listing has no way to
//     say "don't know", so it must not guess),
//   * audit(sim): the problem-appropriate oracle cross-examination.
//
// Queries stay zero-communication const reads of one node's local state,
// exactly as in the model; the Detector is a *view*, it owns nothing and
// never mutates the simulation.  Instances come from the detector registry
// (detect/registry.hpp) under the same spec grammar as scenarios.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/edge.hpp"
#include "common/types.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"

namespace dynsub::detect {

/// Where the wrapped structure sits on the paper's complexity landscape.
enum class ProblemKind : std::uint8_t {
  kCliqueMembership,   // triangle / k-clique membership listing (Thm 1/Cor 1)
  kRobust2Hop,         // robust 2-hop neighborhood listing (Thm 7)
  kRobust3Hop,         // robust 3-hop + 4-/5-cycle listing (Thms 6/5)
  kFull2Hop,           // full 2-hop neighborhood listing (Lemma 1)
  kNaive2Hop,          // the Section 1.3 timestamp-free strawman
  kFloodKHop,          // bounded-bandwidth r-hop flooding baseline
};

/// The query shapes of the uniform surface.  kEdge asks about one edge of
/// the maintained set; the others are membership queries for a subgraph
/// through the queried node.
enum class QueryKind : std::uint8_t {
  kEdge,
  kTriangle,
  kClique,
  kCycle4,
  kCycle5,
};

/// "Is e in your maintained edge set?"  Every detector supports this; the
/// answer domain beyond incident edges is the detector's maintained set
/// (robust subset, full neighborhood, flooded knowledge, ...), which is
/// the point of the landscape.
struct EdgeQuery {
  Edge e;
};

/// "Is {self, u, w} a triangle?"  u, w distinct and distinct from self.
struct TriangleQuery {
  NodeId u = 0;
  NodeId w = 0;
};

/// "Is {self} u others a clique?"  `others` are the k-1 members besides
/// the queried node.
struct CliqueQuery {
  std::vector<NodeId> others;
};

/// "Is this vertex sequence a cycle?"  Consecutive (wrapping) pairs must
/// all be maintained edges; size 4 or 5, and the queried node must be on
/// the cycle.
struct CycleQuery {
  std::vector<NodeId> cycle;
};

using Query = std::variant<EdgeQuery, TriangleQuery, CliqueQuery, CycleQuery>;

/// The QueryKind a concrete Query dispatches as (CycleQuery of size 4 ->
/// kCycle4, size 5 -> kCycle5; other cycle sizes are outside the uniform
/// surface and abort).
[[nodiscard]] QueryKind kind_of(const Query& q);

[[nodiscard]] std::string_view to_string(QueryKind kind);
[[nodiscard]] std::string_view to_string(ProblemKind kind);

/// One canonicalized subgraph occurrence from list():
///   kEdge / kTriangle / kClique -- the sorted member vertices (the queried
///   node included for triangles/cliques);
///   kCycle4 / kCycle5 -- the oracle-canonical vertex sequence (smallest
///   vertex first, smaller neighbor second), so tuples from different
///   nodes of the same cycle collapse under std::sort + std::unique.
using SubgraphTuple = std::vector<NodeId>;

/// Structured metadata: what this detector is and which shapes it answers.
/// The registry name and summary live in the catalog
/// (detect/registry.hpp), which also supplies `problem`.
struct DetectorInfo {
  /// Canonical spec this instance was built from, typed parameters
  /// included ("triangle(k=4)") -- parse_spec round-trips it.
  std::string spec;
  ProblemKind problem;
  /// Supported query(...) shapes, ascending by enum value.
  std::vector<QueryKind> queries;
  /// Supported list(...) shapes, ascending by enum value.
  std::vector<QueryKind> listings;
};

/// The type-erased detector: metadata + factory + query/listing/audit
/// surface.  Stateless with respect to the simulation -- one Detector can
/// serve any number of simulators built from its factory().  Passing it a
/// node from a simulator built by a *different* factory is a programming
/// error and aborts (the adapter checks the concrete node type).
class Detector {
 public:
  virtual ~Detector() = default;

  [[nodiscard]] virtual const DetectorInfo& info() const = 0;

  /// Builds a fresh node store for net::Simulator: all n programs of the
  /// concrete type, in one allocation (one call per simulator).
  [[nodiscard]] virtual net::NodeFactory factory() const = 0;

  /// Uniform membership query at node v: a zero-communication const read.
  /// A malformed query (query_refusal() names why) aborts with the reason
  /// -- an unsupported shape is a caller bug, not a kFalse.  While v's
  /// consistency flag is down the answer is kInconsistent, never a coerced
  /// kTrue/kFalse.
  [[nodiscard]] virtual net::Answer query(const net::Simulator& sim, NodeId v,
                                          const Query& q) const = 0;

  /// Membership listing at node v: every occurrence of the shape through v
  /// (for kEdge: the maintained edge set), canonicalized and sorted.
  /// Returns std::nullopt while v is inconsistent.  A malformed listing
  /// (list_refusal() names why) aborts with the reason.
  [[nodiscard]] virtual std::optional<std::vector<SubgraphTuple>> list(
      const net::Simulator& sim, NodeId v, QueryKind kind) const = 0;

  /// Problem-appropriate oracle audit over every consistent node; nullopt
  /// means pass.  Baselines without an exactness guarantee (naive2hop,
  /// flood) audit vacuously -- the default.
  [[nodiscard]] virtual std::optional<std::string> audit(
      const net::Simulator& sim) const;

  [[nodiscard]] bool supports_query(QueryKind kind) const;
  [[nodiscard]] bool supports_list(QueryKind kind) const;
};

/// The one statement of which queries are well-formed: why asking `q` at
/// node v of a `nodes`-node simulator is malformed for `detector`, or
/// nullptr when it may be asked.  v must be in range; a triangle's two
/// vertices distinct and not v; a clique's other members non-empty and
/// without v; a cycle 4 or 5 vertices long and through v; and the kind
/// among info().queries.  Detector::query aborts with the reason; the
/// serve loop answers kInconsistent with it, so a client's malformed
/// request cannot crash the engine.
[[nodiscard]] const char* query_refusal(const Detector& detector,
                                        std::size_t nodes, NodeId v,
                                        const Query& q);

/// The same for list(): v in range and `kind` among info().listings.
[[nodiscard]] const char* list_refusal(const Detector& detector,
                                       std::size_t nodes, NodeId v,
                                       QueryKind kind);

}  // namespace dynsub::detect
