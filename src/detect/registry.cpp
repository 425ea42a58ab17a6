#include "detect/registry.hpp"

#include <algorithm>
#include <utility>

#include "baseline/floodkhop.hpp"
#include "baseline/full2hop.hpp"
#include "baseline/naive2hop.hpp"
#include "common/check.hpp"
#include "core/audit.hpp"
#include "core/robust2hop.hpp"
#include "core/robust3hop.hpp"
#include "core/triangle.hpp"
#include "scenario/params.hpp"

namespace dynsub::detect {
namespace {

using scenario::Params;
using scenario::SpecNode;

// ------------------------------------------------------- adapter helpers ----

/// Node v as the concrete program this detector's factory stores.  A
/// mismatch means the simulator was built by a different detector's
/// factory -- a caller bug, not a runtime state.
template <typename NodeT>
const NodeT& node_as(const net::Simulator& sim, NodeId v) {
  return sim.store().as<NodeT>(
      "detector query on a simulator built by another factory")[v];
}

SubgraphTuple edge_tuple(Edge e) { return {e.lo(), e.hi()}; }

/// One shape validation for the whole surface, so a malformed query is the
/// same caller bug on every detector (the concrete nodes differ: some
/// abort on self-in-candidate, some would fold it into kFalse).
void check_query_shape(const Query& q, NodeId v) {
  if (const auto* tq = std::get_if<TriangleQuery>(&q)) {
    DYNSUB_CHECK_MSG(tq->u != v && tq->w != v && tq->u != tq->w,
                     "TriangleQuery: u, w must be distinct non-self nodes");
  } else if (const auto* cq = std::get_if<CliqueQuery>(&q)) {
    DYNSUB_CHECK_MSG(!cq->others.empty(), "CliqueQuery: others is empty");
    for (const NodeId u : cq->others) {
      DYNSUB_CHECK_MSG(u != v,
                       "CliqueQuery: others must not contain the queried "
                       "node (it is implied)");
    }
  } else if (const auto* yq = std::get_if<CycleQuery>(&q)) {
    DYNSUB_CHECK_MSG(
        std::find(yq->cycle.begin(), yq->cycle.end(), v) != yq->cycle.end(),
        "CycleQuery: the queried node must be on the cycle");
  }
}

/// Metadata-checked entry into every adapter's query/list: the kind must be
/// declared in info() -- asking a detector for a shape it never advertised
/// is a programming error, not a kFalse.
class DetectorBase : public Detector {
 public:
  [[nodiscard]] const DetectorInfo& info() const final { return info_; }

  [[nodiscard]] net::Answer query(const net::Simulator& sim, NodeId v,
                                  const Query& q) const final {
    DYNSUB_CHECK_MSG(v < sim.node_count(),
                     "query: node id out of range for this simulator");
    DYNSUB_CHECK_MSG(supports_query(kind_of(q)),
                     "query kind not supported by this detector (see "
                     "DetectorInfo::queries)");
    check_query_shape(q, v);
    // The engine's flag, not the program's: a node degraded by transport
    // loss has no way to know its state is stale, so its own answer
    // cannot be trusted until recovery completes.
    if (!sim.consistency()[v]) return net::Answer::kInconsistent;
    return do_query(sim, v, q);
  }

  [[nodiscard]] std::optional<std::vector<SubgraphTuple>> list(
      const net::Simulator& sim, NodeId v, QueryKind kind) const final {
    DYNSUB_CHECK_MSG(v < sim.node_count(),
                     "list: node id out of range for this simulator");
    DYNSUB_CHECK_MSG(supports_list(kind),
                     "list kind not supported by this detector (see "
                     "DetectorInfo::listings)");
    if (!sim.consistency()[v]) return std::nullopt;
    auto tuples = do_list(sim, v, kind);
    std::sort(tuples.begin(), tuples.end());
    return tuples;
  }

 protected:
  [[nodiscard]] virtual net::Answer do_query(const net::Simulator& sim,
                                             NodeId v,
                                             const Query& q) const = 0;
  /// Called only for supported kinds on a consistent node.
  [[nodiscard]] virtual std::vector<SubgraphTuple> do_list(
      const net::Simulator& sim, NodeId v, QueryKind kind) const = 0;

  DetectorInfo info_;
};

template <typename MapOrSet>
std::vector<SubgraphTuple> edge_tuples_of(const MapOrSet& edges) {
  std::vector<SubgraphTuple> out;
  out.reserve(edges.size());
  for (const auto& item : edges) {
    if constexpr (requires { item.first; }) {
      out.push_back(edge_tuple(item.first));
    } else {
      out.push_back(edge_tuple(item));
    }
  }
  return out;
}

// ------------------------------------------------------------- adapters ----

class TriangleDetector final : public DetectorBase {
 public:
  explicit TriangleDetector(int k) : k_(k) {
    info_.name = "triangle";
    info_.spec = k == 3 ? "triangle" : "triangle(k=" + std::to_string(k) + ")";
    info_.problem = ProblemKind::kCliqueMembership;
    info_.summary =
        "Thm 1 / Cor 1: triangle and k-clique membership listing, O(1) "
        "amortized";
    info_.queries = {QueryKind::kEdge, QueryKind::kTriangle,
                     QueryKind::kClique};
    info_.listings = {QueryKind::kTriangle, QueryKind::kClique};
  }

  [[nodiscard]] net::NodeFactory factory() const override {
    return net::store_of<core::TriangleNode>();
  }

  [[nodiscard]] std::optional<std::string> audit(
      const net::Simulator& sim) const override {
    if (auto bad = core::audit_triangle(sim)) return bad;
    return core::audit_cliques(sim, k_);
  }

 protected:
  [[nodiscard]] net::Answer do_query(const net::Simulator& sim, NodeId v,
                                     const Query& q) const override {
    const auto& node = node_as<core::TriangleNode>(sim, v);
    if (const auto* eq = std::get_if<EdgeQuery>(&q)) {
      return node.query_edge(eq->e);
    }
    if (const auto* tq = std::get_if<TriangleQuery>(&q)) {
      return node.query_triangle(tq->u, tq->w);
    }
    return node.query_clique(std::get<CliqueQuery>(q).others);
  }

  [[nodiscard]] std::vector<SubgraphTuple> do_list(
      const net::Simulator& sim, NodeId v, QueryKind kind) const override {
    const auto& node = node_as<core::TriangleNode>(sim, v);
    std::vector<SubgraphTuple> out;
    if (kind == QueryKind::kTriangle) {
      for (const auto& t : node.list_triangles()) {
        SubgraphTuple tuple{v, t.u, t.w};
        std::sort(tuple.begin(), tuple.end());
        out.push_back(std::move(tuple));
      }
      return out;
    }
    for (auto& others : node.list_cliques(k_)) {
      others.push_back(v);
      std::sort(others.begin(), others.end());
      out.push_back(std::move(others));
    }
    return out;
  }

 private:
  int k_;
};

class Robust2HopDetector final : public DetectorBase {
 public:
  Robust2HopDetector() {
    info_.name = "robust2hop";
    info_.spec = "robust2hop";
    info_.problem = ProblemKind::kRobust2Hop;
    info_.summary =
        "Thm 7: robust 2-hop neighborhood listing, O(1) amortized";
    info_.queries = {QueryKind::kEdge};
    info_.listings = {QueryKind::kEdge};
  }

  [[nodiscard]] net::NodeFactory factory() const override {
    return net::store_of<core::Robust2HopNode>();
  }

  [[nodiscard]] std::optional<std::string> audit(
      const net::Simulator& sim) const override {
    return core::audit_robust2hop(sim);
  }

 protected:
  [[nodiscard]] net::Answer do_query(const net::Simulator& sim, NodeId v,
                                     const Query& q) const override {
    return node_as<core::Robust2HopNode>(sim, v).query_edge(
        std::get<EdgeQuery>(q).e);
  }

  [[nodiscard]] std::vector<SubgraphTuple> do_list(
      const net::Simulator& sim, NodeId v, QueryKind) const override {
    return edge_tuples_of(
        node_as<core::Robust2HopNode>(sim, v).known_edges());
  }
};

class Robust3HopDetector final : public DetectorBase {
 public:
  explicit Robust3HopDetector(core::Robust3HopOptions options)
      : options_(options) {
    info_.name = "robust3hop";
    info_.spec = options.paper_literal_l2_forward ? "robust3hop(l2=1)"
                                                  : "robust3hop";
    info_.problem = ProblemKind::kRobust3Hop;
    info_.summary =
        "Thms 6/5: robust 3-hop neighborhood and 4-/5-cycle listing, O(1) "
        "amortized";
    info_.queries = {QueryKind::kEdge, QueryKind::kCycle4, QueryKind::kCycle5};
    info_.listings = {QueryKind::kEdge, QueryKind::kCycle4,
                      QueryKind::kCycle5};
  }

  [[nodiscard]] net::NodeFactory factory() const override {
    return net::store_of<core::Robust3HopNode>(options_);
  }

  [[nodiscard]] std::optional<std::string> audit(
      const net::Simulator& sim) const override {
    return core::audit_robust3hop_and_cycles(sim);
  }

 protected:
  [[nodiscard]] net::Answer do_query(const net::Simulator& sim, NodeId v,
                                     const Query& q) const override {
    const auto& node = node_as<core::Robust3HopNode>(sim, v);
    if (const auto* eq = std::get_if<EdgeQuery>(&q)) {
      return node.query_edge(eq->e);
    }
    return node.query_cycle(std::get<CycleQuery>(q).cycle);
  }

  [[nodiscard]] std::vector<SubgraphTuple> do_list(
      const net::Simulator& sim, NodeId v, QueryKind kind) const override {
    const auto& node = node_as<core::Robust3HopNode>(sim, v);
    std::vector<SubgraphTuple> out;
    if (kind == QueryKind::kEdge) {
      return edge_tuples_of(node.known_edges());
    }
    if (kind == QueryKind::kCycle4) {
      for (const auto& c : node.list_4cycles()) {
        out.emplace_back(c.v.begin(), c.v.end());
      }
      return out;
    }
    for (const auto& c : node.list_5cycles()) {
      out.emplace_back(c.v.begin(), c.v.end());
    }
    return out;
  }

 private:
  core::Robust3HopOptions options_;
};

class Naive2HopDetector final : public DetectorBase {
 public:
  Naive2HopDetector() {
    info_.name = "naive2hop";
    info_.spec = "naive2hop";
    info_.problem = ProblemKind::kNaive2Hop;
    info_.summary =
        "Sec 1.3 strawman: timestamp-free 2-hop tracking (confidently wrong "
        "under flicker)";
    info_.queries = {QueryKind::kEdge};
    info_.listings = {QueryKind::kEdge};
  }

  [[nodiscard]] net::NodeFactory factory() const override {
    return net::store_of<baseline::NaiveTwoHopNode>();
  }

 protected:
  [[nodiscard]] net::Answer do_query(const net::Simulator& sim, NodeId v,
                                     const Query& q) const override {
    return node_as<baseline::NaiveTwoHopNode>(sim, v).query_edge(
        std::get<EdgeQuery>(q).e);
  }

  [[nodiscard]] std::vector<SubgraphTuple> do_list(
      const net::Simulator& sim, NodeId v, QueryKind) const override {
    return edge_tuples_of(
        node_as<baseline::NaiveTwoHopNode>(sim, v).known_edges());
  }
};

class Full2HopDetector final : public DetectorBase {
 public:
  Full2HopDetector() {
    info_.name = "full2hop";
    info_.spec = "full2hop";
    info_.problem = ProblemKind::kFull2Hop;
    info_.summary =
        "Lemma 1: full 2-hop neighborhood listing, Theta(n/log n) amortized";
    info_.queries = {QueryKind::kEdge, QueryKind::kTriangle,
                     QueryKind::kClique};
    info_.listings = {QueryKind::kEdge};
  }

  [[nodiscard]] net::NodeFactory factory() const override {
    return net::store_of<baseline::FullTwoHopNode>();
  }

 protected:
  [[nodiscard]] net::Answer do_query(const net::Simulator& sim, NodeId v,
                                     const Query& q) const override {
    const auto& node = node_as<baseline::FullTwoHopNode>(sim, v);
    if (const auto* eq = std::get_if<EdgeQuery>(&q)) {
      return node.query_edge(eq->e);
    }
    // Triangle / clique membership as an exact pattern query: a k-clique
    // pattern has every pair as an edge (no induced non-edge constraints)
    // and every edge inside the closed neighborhood, so query_pattern
    // decides it -- the same semantics as TriangleNode's queries.
    std::vector<NodeId> vertices{v};
    if (const auto* tq = std::get_if<TriangleQuery>(&q)) {
      vertices.push_back(tq->u);
      vertices.push_back(tq->w);
    } else {
      const auto& others = std::get<CliqueQuery>(q).others;
      vertices.insert(vertices.end(), others.begin(), others.end());
    }
    std::vector<std::pair<std::size_t, std::size_t>> pattern_edges;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      for (std::size_t j = i + 1; j < vertices.size(); ++j) {
        pattern_edges.emplace_back(i, j);
      }
    }
    return node.query_pattern(vertices, pattern_edges);
  }

  [[nodiscard]] std::vector<SubgraphTuple> do_list(
      const net::Simulator& sim, NodeId v, QueryKind) const override {
    return edge_tuples_of(
        node_as<baseline::FullTwoHopNode>(sim, v).known_edges());
  }
};

class FloodDetector final : public DetectorBase {
 public:
  explicit FloodDetector(int radius) : radius_(radius) {
    info_.name = "flood";
    info_.spec = "flood(radius=" + std::to_string(radius) + ")";
    info_.problem = ProblemKind::kFloodKHop;
    info_.summary =
        "bounded-bandwidth r-hop flooding: the practitioner's baseline the "
        "lower bounds are measured against";
    info_.queries = {QueryKind::kEdge, QueryKind::kCycle4, QueryKind::kCycle5};
    info_.listings = {QueryKind::kEdge};
  }

  [[nodiscard]] net::NodeFactory factory() const override {
    return net::store_of<baseline::FloodKHopNode>(radius_);
  }

 protected:
  [[nodiscard]] net::Answer do_query(const net::Simulator& sim, NodeId v,
                                     const Query& q) const override {
    const auto& node = node_as<baseline::FloodKHopNode>(sim, v);
    if (const auto* eq = std::get_if<EdgeQuery>(&q)) {
      return node.query_edge(eq->e);
    }
    // The self-on-cycle contract of the uniform surface is enforced by
    // the node itself, same as Robust3HopNode.
    return node.query_cycle(std::get<CycleQuery>(q).cycle);
  }

  [[nodiscard]] std::vector<SubgraphTuple> do_list(
      const net::Simulator& sim, NodeId v, QueryKind) const override {
    return edge_tuples_of(
        node_as<baseline::FloodKHopNode>(sim, v).known_edges());
  }

 private:
  int radius_;
};

// ------------------------------------------------------- the registries ----

using Builder = std::unique_ptr<Detector> (*)(const SpecNode&, std::string*);

bool forbid_children(const SpecNode& node, Params& p) {
  if (!node.children.empty()) {
    p.fail("detector '" + node.name + "' takes no child specs");
    return false;
  }
  return true;
}

std::unique_ptr<Detector> build_triangle(const SpecNode& node,
                                         std::string* error) {
  Params p(node, error, "detector");
  if (!forbid_children(node, p)) return nullptr;
  const std::uint64_t k = p.u64("k", 3);
  if (!p.finish()) return nullptr;
  if (k < 3 || k > 16) {
    p.fail("triangle k=" + std::to_string(k) +
           " is out of range (clique size must be in [3, 16])");
    return nullptr;
  }
  return std::make_unique<TriangleDetector>(static_cast<int>(k));
}

std::unique_ptr<Detector> build_robust2hop(const SpecNode& node,
                                           std::string* error) {
  Params p(node, error, "detector");
  if (!forbid_children(node, p) || !p.finish()) return nullptr;
  return std::make_unique<Robust2HopDetector>();
}

std::unique_ptr<Detector> build_robust3hop(const SpecNode& node,
                                           std::string* error) {
  Params p(node, error, "detector");
  if (!forbid_children(node, p)) return nullptr;
  core::Robust3HopOptions options;
  options.paper_literal_l2_forward = p.u64("l2", 0) != 0;
  if (!p.finish()) return nullptr;
  return std::make_unique<Robust3HopDetector>(options);
}

std::unique_ptr<Detector> build_naive2hop(const SpecNode& node,
                                          std::string* error) {
  Params p(node, error, "detector");
  if (!forbid_children(node, p) || !p.finish()) return nullptr;
  return std::make_unique<Naive2HopDetector>();
}

std::unique_ptr<Detector> build_full2hop(const SpecNode& node,
                                         std::string* error) {
  Params p(node, error, "detector");
  if (!forbid_children(node, p) || !p.finish()) return nullptr;
  return std::make_unique<Full2HopDetector>();
}

std::unique_ptr<Detector> build_flood(const SpecNode& node,
                                      std::string* error) {
  Params p(node, error, "detector");
  if (!forbid_children(node, p)) return nullptr;
  const std::uint64_t radius = p.u64("radius", 2);
  if (!p.finish()) return nullptr;
  if (radius < 2 || radius > 6) {
    p.fail("flood radius=" + std::to_string(radius) +
           " is out of range (must be in [2, 6])");
    return nullptr;
  }
  return std::make_unique<FloodDetector>(static_cast<int>(radius));
}

struct DetectorEntry {
  const char* name;
  DetectorKind kind;
  ProblemKind problem;
  const char* summary;
  const char* example;
  Builder build;
};

const DetectorEntry kEntries[] = {
    {"triangle", DetectorKind::kCore, ProblemKind::kCliqueMembership,
     "Thm 1 / Cor 1: triangle and k-clique membership listing",
     "triangle(k=4)", build_triangle},
    {"robust2hop", DetectorKind::kCore, ProblemKind::kRobust2Hop,
     "Thm 7: robust 2-hop neighborhood listing", "robust2hop",
     build_robust2hop},
    {"robust3hop", DetectorKind::kCore, ProblemKind::kRobust3Hop,
     "Thms 6/5: robust 3-hop neighborhood and 4-/5-cycle listing",
     "robust3hop(l2=0)", build_robust3hop},
    {"naive2hop", DetectorKind::kBaseline, ProblemKind::kNaive2Hop,
     "Sec 1.3 strawman: timestamp-free 2-hop tracking", "naive2hop",
     build_naive2hop},
    {"full2hop", DetectorKind::kBaseline, ProblemKind::kFull2Hop,
     "Lemma 1: full 2-hop neighborhood listing", "full2hop", build_full2hop},
    {"flood", DetectorKind::kBaseline, ProblemKind::kFloodKHop,
     "r-hop flooding baseline (the lower bounds' measuring stick)",
     "flood(radius=3)", build_flood},
};

/// Short names expanding to a parameterized spec, like scenario composites.
struct AliasEntry {
  const char* name;
  const char* expansion;
  ProblemKind problem;
  const char* summary;
};

const AliasEntry kAliases[] = {
    {"flood2", "flood(radius=2)", ProblemKind::kFloodKHop,
     "alias for flood(radius=2)"},
    {"flood3", "flood(radius=3)", ProblemKind::kFloodKHop,
     "alias for flood(radius=3)"},
};

}  // namespace

const std::vector<DetectorCatalogEntry>& detector_catalog() {
  static const std::vector<DetectorCatalogEntry> catalog = [] {
    std::vector<DetectorCatalogEntry> entries;
    for (const auto& e : kEntries) {
      entries.push_back({e.name, e.kind, e.problem, e.summary, e.example});
    }
    for (const auto& a : kAliases) {
      entries.push_back(
          {a.name, DetectorKind::kAlias, a.problem, a.summary, a.name});
    }
    std::sort(entries.begin(), entries.end(),
              [](const DetectorCatalogEntry& a, const DetectorCatalogEntry& b) {
                if (a.kind != b.kind) return a.kind < b.kind;
                return a.name < b.name;
              });
    return entries;
  }();
  return catalog;
}

std::string describe_detectors() {
  std::string out;
  for (const auto& e : detector_catalog()) {
    out += "  " + e.name;
    out.append(e.name.size() < 12 ? 12 - e.name.size() : 1, ' ');
    out += e.summary + " (e.g. " + e.example + ")\n";
  }
  return out;
}

std::unique_ptr<Detector> build_detector(const scenario::SpecNode& node,
                                         std::string* error) {
  for (const auto& e : kEntries) {
    if (node.name == e.name) return e.build(node, error);
  }
  for (const auto& a : kAliases) {
    if (node.name != a.name) continue;
    if (!node.params.empty() || !node.children.empty()) {
      if (error != nullptr) {
        *error = "detector alias '" + node.name +
                 "' takes no parameters (it expands to " +
                 std::string(a.expansion) + ")";
      }
      return nullptr;
    }
    return build_detector(std::string_view(a.expansion), error);
  }
  if (error != nullptr) {
    *error = "unknown detector '" + node.name +
             "'; the registry knows:\n" + describe_detectors();
  }
  return nullptr;
}

std::unique_ptr<Detector> build_detector(std::string_view spec_text,
                                         std::string* error) {
  const auto node = scenario::parse_spec(spec_text, error);
  if (!node) return nullptr;
  return build_detector(*node, error);
}

}  // namespace dynsub::detect
