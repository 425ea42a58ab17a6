#include "detect/detector.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dynsub::detect {

QueryKind kind_of(const Query& q) {
  if (std::holds_alternative<EdgeQuery>(q)) return QueryKind::kEdge;
  if (std::holds_alternative<TriangleQuery>(q)) return QueryKind::kTriangle;
  if (std::holds_alternative<CliqueQuery>(q)) return QueryKind::kClique;
  const auto& cycle = std::get<CycleQuery>(q).cycle;
  DYNSUB_CHECK_MSG(cycle.size() == 4 || cycle.size() == 5,
                   "CycleQuery must name 4 or 5 vertices");
  return cycle.size() == 4 ? QueryKind::kCycle4 : QueryKind::kCycle5;
}

std::string_view to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kEdge:
      return "edge";
    case QueryKind::kTriangle:
      return "triangle";
    case QueryKind::kClique:
      return "clique";
    case QueryKind::kCycle4:
      return "cycle4";
    case QueryKind::kCycle5:
      return "cycle5";
  }
  return "?";
}

std::string_view to_string(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::kCliqueMembership:
      return "k-clique membership listing";
    case ProblemKind::kRobust2Hop:
      return "robust 2-hop neighborhood listing";
    case ProblemKind::kRobust3Hop:
      return "robust 3-hop + 4-/5-cycle listing";
    case ProblemKind::kFull2Hop:
      return "full 2-hop neighborhood listing";
    case ProblemKind::kNaive2Hop:
      return "naive 2-hop tracking (strawman)";
    case ProblemKind::kFloodKHop:
      return "r-hop flooding baseline";
  }
  return "?";
}

std::optional<std::string> Detector::audit(const net::Simulator& sim) const {
  (void)sim;
  return std::nullopt;
}

bool Detector::supports_query(QueryKind kind) const {
  const auto& qs = info().queries;
  return std::find(qs.begin(), qs.end(), kind) != qs.end();
}

bool Detector::supports_list(QueryKind kind) const {
  const auto& ls = info().listings;
  return std::find(ls.begin(), ls.end(), kind) != ls.end();
}

const char* query_refusal(const Detector& detector, std::size_t nodes,
                          NodeId v, const Query& q) {
  if (v >= nodes) return "node id out of range";
  // Shape first: kind_of aborts on cycles of unsupported size, so the size
  // check must come before the support check.
  if (const auto* tq = std::get_if<TriangleQuery>(&q)) {
    if (tq->u == v || tq->w == v || tq->u == tq->w) {
      return "triangle vertices must be distinct non-self nodes";
    }
  } else if (const auto* cq = std::get_if<CliqueQuery>(&q)) {
    if (cq->others.empty()) return "clique query with no other members";
    if (std::find(cq->others.begin(), cq->others.end(), v) !=
        cq->others.end()) {
      return "clique members must not include the queried node";
    }
  } else if (const auto* yq = std::get_if<CycleQuery>(&q)) {
    if (yq->cycle.size() != 4 && yq->cycle.size() != 5) {
      return "cycle queries take 4 or 5 vertices";
    }
    if (std::find(yq->cycle.begin(), yq->cycle.end(), v) ==
        yq->cycle.end()) {
      return "the queried node must be on the cycle";
    }
  }
  if (!detector.supports_query(kind_of(q))) {
    return "query kind not supported by this detector";
  }
  return nullptr;
}

const char* list_refusal(const Detector& detector, std::size_t nodes,
                         NodeId v, QueryKind kind) {
  if (v >= nodes) return "node id out of range";
  if (!detector.supports_list(kind)) {
    return "listing kind not supported by this detector";
  }
  return nullptr;
}

}  // namespace dynsub::detect
