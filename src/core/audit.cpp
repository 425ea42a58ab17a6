#include "core/audit.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "core/robust2hop.hpp"
#include "core/robust3hop.hpp"
#include "core/triangle.hpp"
#include "oracle/robust_sets.hpp"
#include "oracle/subgraphs.hpp"

namespace dynsub::core {

namespace {

std::string describe_edge_set_diff(const FlatSet<Edge>& expected,
                                   const FlatSet<Edge>& actual) {
  std::ostringstream os;
  for (const Edge& e : expected) {
    if (!actual.contains(e)) os << " missing " << e;
  }
  for (const Edge& e : actual) {
    if (!expected.contains(e)) os << " extra " << e;
  }
  return os.str();
}

FlatSet<Edge> keys_of(const FlatMap<Edge, Timestamp>& m) {
  FlatSet<Edge> out;
  for (const auto& [e, t] : m) {
    (void)t;
    out.insert(e);
  }
  return out;
}

}  // namespace

std::optional<std::string> audit_robust2hop(const net::Simulator& sim) {
  for (NodeId v = 0; v < sim.node_count(); ++v) {
    if (!sim.consistency()[v]) continue;
    const auto* node = dynamic_cast<const Robust2HopNode*>(&sim.node(v));
    DYNSUB_CHECK_MSG(node != nullptr, "audit_robust2hop: wrong node type");
    const FlatSet<Edge> expected = oracle::robust_2hop(sim.graph(), v);
    const FlatSet<Edge> actual = keys_of(node->known_edges());
    if (!(expected == actual)) {
      std::ostringstream os;
      os << "round " << sim.round() << " node " << v
         << ": S_v != R^{v,2}:" << describe_edge_set_diff(expected, actual);
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_triangle(const net::Simulator& sim) {
  for (NodeId v = 0; v < sim.node_count(); ++v) {
    if (!sim.consistency()[v]) continue;
    const auto* node = dynamic_cast<const TriangleNode*>(&sim.node(v));
    DYNSUB_CHECK_MSG(node != nullptr, "audit_triangle: wrong node type");
    const FlatSet<Edge> expected =
        oracle::triangle_pattern_set(sim.graph(), v);
    const FlatSet<Edge> actual = keys_of(node->known_edges());
    if (!(expected == actual)) {
      std::ostringstream os;
      os << "round " << sim.round() << " node " << v
         << ": S_v != T^{v,2}:" << describe_edge_set_diff(expected, actual);
      return os.str();
    }
    // Membership listing: the triangles v reports are exactly the oracle's.
    const auto listed = node->list_triangles();
    const auto truth = oracle::triangles_through(sim.graph(), v);
    if (listed != truth) {
      std::ostringstream os;
      os << "round " << sim.round() << " node " << v
         << ": triangle listing mismatch (listed " << listed.size()
         << ", truth " << truth.size() << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_cliques(const net::Simulator& sim, int k) {
  for (NodeId v = 0; v < sim.node_count(); ++v) {
    if (!sim.consistency()[v]) continue;
    const auto* node = dynamic_cast<const TriangleNode*>(&sim.node(v));
    DYNSUB_CHECK_MSG(node != nullptr, "audit_cliques: wrong node type");
    auto listed = node->list_cliques(k);
    auto truth = oracle::cliques_through(sim.graph(), v, k);
    std::sort(listed.begin(), listed.end());
    std::sort(truth.begin(), truth.end());
    if (listed != truth) {
      std::ostringstream os;
      os << "round " << sim.round() << " node " << v << ": " << k
         << "-clique listing mismatch (listed " << listed.size()
         << ", truth " << truth.size() << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_robust3hop(const net::Simulator& sim) {
  const auto& g = sim.graph();
  const oracle::TimestampedGraph gp = sim.prev_graph();
  for (NodeId v = 0; v < sim.node_count(); ++v) {
    if (!sim.consistency()[v]) continue;
    const auto* node = dynamic_cast<const Robust3HopNode*>(&sim.node(v));
    DYNSUB_CHECK_MSG(node != nullptr, "audit_robust3hop: wrong node type");
    const FlatSet<Edge> actual = node->known_edges();

    // Lower bound: R^{v,2}_i  u  (R^{v,3}_{i-1} \ R^{v,2}_{i-1}).
    FlatSet<Edge> lower = oracle::robust_2hop(g, v);
    {
      const FlatSet<Edge> r3_prev = oracle::robust_3hop(gp, v);
      const FlatSet<Edge> r2_prev = oracle::robust_2hop(gp, v);
      for (const Edge& e : r3_prev) {
        if (!r2_prev.contains(e)) lower.insert(e);
      }
    }
    for (const Edge& e : lower) {
      if (!actual.contains(e)) {
        std::ostringstream os;
        os << "round " << sim.round() << " node " << v
           << ": robust edge missing from S~: " << e;
        return os.str();
      }
    }

    // Upper bound: E^{v,2}_i  u  (E^{v,3}_{i-1} \ E^{v,2}_{i-1}).
    FlatSet<Edge> upper = oracle::hop_edges(g, v, 2);
    {
      const FlatSet<Edge> e3_prev = oracle::hop_edges(gp, v, 3);
      const FlatSet<Edge> e2_prev = oracle::hop_edges(gp, v, 2);
      for (const Edge& e : e3_prev) {
        if (!e2_prev.contains(e)) upper.insert(e);
      }
    }
    for (const Edge& e : actual) {
      if (!upper.contains(e)) {
        std::ostringstream os;
        os << "round " << sim.round() << " node " << v
           << ": S~ contains edge outside the 3-hop window: " << e;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_cycle_listing(const net::Simulator& sim) {
  const oracle::TimestampedGraph gp = sim.prev_graph();

  // Soundness: a consistent node's true answer implies the cycle in G_{i-1}.
  const auto truth4 = oracle::all_4_cycles(gp);
  const auto truth5 = oracle::all_5_cycles(gp);
  for (NodeId v = 0; v < sim.node_count(); ++v) {
    if (!sim.consistency()[v]) continue;
    const auto* node = dynamic_cast<const Robust3HopNode*>(&sim.node(v));
    DYNSUB_CHECK_MSG(node != nullptr, "audit_cycle_listing: wrong node type");
    for (const auto& c : node->list_4cycles()) {
      if (!std::binary_search(truth4.begin(), truth4.end(), c)) {
        std::ostringstream os;
        os << "round " << sim.round() << " node " << v
           << ": lists a 4-cycle not in G_{i-1}: " << c.v[0] << '-' << c.v[1]
           << '-' << c.v[2] << '-' << c.v[3];
        return os.str();
      }
    }
    for (const auto& c : node->list_5cycles()) {
      if (!std::binary_search(truth5.begin(), truth5.end(), c)) {
        std::ostringstream os;
        os << "round " << sim.round() << " node " << v
           << ": lists a 5-cycle not in G_{i-1}";
        return os.str();
      }
    }
  }

  // Completeness: every cycle of G_{i-1} whose nodes are all consistent is
  // reported by at least one of them.
  for (const auto& c : truth4) {
    bool all_consistent = true;
    for (NodeId x : c.v) all_consistent &= sim.consistency()[x];
    if (!all_consistent) continue;
    bool reported = false;
    for (NodeId x : c.v) {
      const auto* node = dynamic_cast<const Robust3HopNode*>(&sim.node(x));
      if (node->query_cycle(std::span<const NodeId>(c.v.data(), 4)) ==
          net::Answer::kTrue) {
        reported = true;
        break;
      }
    }
    if (!reported) {
      std::ostringstream os;
      os << "round " << sim.round() << ": 4-cycle " << c.v[0] << '-'
         << c.v[1] << '-' << c.v[2] << '-' << c.v[3]
         << " of G_{i-1} unreported though all nodes consistent";
      return os.str();
    }
  }
  for (const auto& c : truth5) {
    bool all_consistent = true;
    for (NodeId x : c.v) all_consistent &= sim.consistency()[x];
    if (!all_consistent) continue;
    bool reported = false;
    for (NodeId x : c.v) {
      const auto* node = dynamic_cast<const Robust3HopNode*>(&sim.node(x));
      if (node->query_cycle(std::span<const NodeId>(c.v.data(), 5)) ==
          net::Answer::kTrue) {
        reported = true;
        break;
      }
    }
    if (!reported) {
      std::ostringstream os;
      os << "round " << sim.round() << ": 5-cycle " << c.v[0] << '-'
         << c.v[1] << '-' << c.v[2] << '-' << c.v[3] << '-' << c.v[4]
         << " of G_{i-1} unreported though all nodes consistent";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace dynsub::core
