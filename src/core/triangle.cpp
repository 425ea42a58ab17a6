#include "core/triangle.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dynsub::core {

void TriangleNode::enqueue_unique(const Pending& p) {
  if (std::find(queue_.begin(), queue_.end(), p) == queue_.end()) {
    queue_.push_back(p);
  }
}

/// Called after learning / refreshing a mark-(a) edge {a,b} with imaginary
/// timestamp t'.  If exactly one of the connecting edges is older than the
/// other and the newer one is at most t', the older incident edge is owed
/// to the far endpoint (pattern (b) relay).
void TriangleNode::maybe_enqueue_hint(NodeId a, NodeId b, Timestamp t_prime) {
  if (!view_.has_neighbor(a) || !view_.has_neighbor(b)) return;
  const Timestamp ta = view_.t(a);
  const Timestamp tb = view_.t(b);
  const NodeId v = view_.self();
  if (ta < tb && tb <= t_prime) {
    enqueue_unique(
        {Pending::Type::kMarkB, Edge(v, a), EventKind::kInsert, ta, b});
  } else if (tb < ta && ta <= t_prime) {
    enqueue_unique(
        {Pending::Type::kMarkB, Edge(v, b), EventKind::kInsert, tb, a});
  }
}

void TriangleNode::react_and_send(const net::NodeContext& ctx,
                                  std::span<const EdgeEvent> events,
                                  net::Outbox& out) {
  const NodeId v = ctx.self;

  // --- Topology changes (paper step 2). ------------------------------------
  std::vector<Pending> mark_a;
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kDelete) continue;
    mark_a.push_back({Pending::Type::kMarkA, ev.edge, EventKind::kDelete,
                      view_.t(ev.edge.other(v)), kNoNode});
  }
  view_.apply(events, ctx.round);
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kDelete) continue;
    const NodeId u = ev.edge.other(v);
    knowledge_.retract_neighbor(u, view_);
    // Pending mark-(b) items that relied on the deleted link (either as
    // the owed edge or as the link to the recipient) are stale; drop them.
    // Any still-needed pattern is re-derived from re-insertion broadcasts.
    queue_.erase_if([&](const Pending& p) {
      return p.type == Pending::Type::kMarkB &&
             (p.edge.touches(u) || p.dst == u);
    });
  }
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kInsert) continue;
    mark_a.push_back({Pending::Type::kMarkA, ev.edge, EventKind::kInsert,
                      ctx.round, kNoNode});
  }
  for (auto& p : mark_a) queue_.push_back(p);

  // --- Communication (paper step 3). ---------------------------------------
  busy_at_send_ = !queue_.empty();
  if (busy_at_send_) {
    out.declare_busy();
    const Pending item = queue_.front();
    queue_.pop_front();
    if (item.type == Pending::Type::kMarkA) {
      if (item.kind == EventKind::kInsert) {
        for (const auto& [u, t_vu] : view_.incident()) {
          if (item.t_event >= t_vu) {
            out.send(u, net::WireMessage::edge_insert(item.edge));
          }
        }
      } else {
        // Deletion: broadcast retraction, with the superseded bit when the
        // edge has already been re-inserted (D1/D5).
        auto msg = net::WireMessage::edge_delete(item.edge);
        msg.ttl = view_.has_neighbor(item.edge.other(v)) ? 1 : 0;
        for (const auto& [u, t_vu] : view_.incident()) {
          (void)t_vu;
          out.send(u, msg);
        }
      }
    } else {
      // Mark (b): one hint to one neighbor.  Stale hints (owed edge gone
      // or re-timestamped, or recipient link gone) are dropped; the purge
      // and re-insertion machinery re-derives whatever is still owed.
      const NodeId other = item.edge.other(v);
      if (view_.has_neighbor(item.dst) && view_.has_neighbor(other) &&
          view_.t(other) == item.t_event) {
        out.send(item.dst, net::WireMessage::triangle_hint(item.edge));
      }
    }
  }
}

void TriangleNode::receive_and_update(const net::NodeContext& ctx,
                                      const net::Inbox& in) {
  const NodeId v = ctx.self;
  for (const auto& [from, msg] : in.payloads) {
    using Kind = net::WireMessage::Kind;
    const Edge e(msg.nodes[0], msg.nodes[1]);
    switch (msg.kind) {
      case Kind::kEdgeInsert: {
        DYNSUB_CHECK(e.touches(from));
        if (e.touches(v)) break;  // own edges are tracked locally
        const Timestamp t_prime =
            knowledge_.accept_insert(e, from, view_.t(from));
        // Pattern (b) detection (paper step 4).
        maybe_enqueue_hint(e.lo(), e.hi(), t_prime);
        break;
      }
      case Kind::kEdgeDelete: {
        DYNSUB_CHECK(e.touches(from));
        if (e.touches(v)) break;
        knowledge_.accept_delete(e, from, msg.ttl != 0, view_);
        break;
      }
      case Kind::kTriangleHint: {
        // The sender owes us its incident edge e = {from, x}: accept only
        // while both our connecting edges exist, and stamp it older than
        // both (pattern (b) in our coordinates).
        DYNSUB_CHECK(e.touches(from));
        const NodeId x = e.other(from);
        if (x == v) break;
        if (view_.has_neighbor(from) && view_.has_neighbor(x)) {
          knowledge_.accept_hint(
              e, from, std::min(view_.t(from), view_.t(x)) - 1);
        }
        break;
      }
      default:
        DYNSUB_CHECK_MSG(false, "TriangleNode: unexpected message kind");
    }
  }
  const bool quiet =
      !busy_at_send_ && queue_.empty() && in.busy_neighbors.empty();
  consistent_ = quiet && quiet_prev_;  // deviation D2: two-round rule
  quiet_prev_ = quiet;
  if (consistent_) knowledge_.prune_dead();
}

bool TriangleNode::knows_edge(Edge e) const {
  if (e.touches(view_.self())) {
    return view_.has_neighbor(e.other(view_.self()));
  }
  return knowledge_.contains(e);
}

net::Answer TriangleNode::query_triangle(NodeId u, NodeId w) const {
  if (!consistent_) return net::Answer::kInconsistent;
  const NodeId v = view_.self();
  DYNSUB_CHECK(u != v && w != v && u != w);
  const bool yes = view_.has_neighbor(u) && view_.has_neighbor(w) &&
                   knowledge_.contains(Edge(u, w));
  return yes ? net::Answer::kTrue : net::Answer::kFalse;
}

net::Answer TriangleNode::query_clique(std::span<const NodeId> others) const {
  if (!consistent_) return net::Answer::kInconsistent;
  const NodeId v = view_.self();
  for (std::size_t i = 0; i < others.size(); ++i) {
    DYNSUB_CHECK(others[i] != v);
    if (!view_.has_neighbor(others[i])) return net::Answer::kFalse;
    for (std::size_t j = i + 1; j < others.size(); ++j) {
      if (others[i] == others[j]) return net::Answer::kFalse;
      if (!knowledge_.contains(Edge(others[i], others[j]))) {
        return net::Answer::kFalse;
      }
    }
  }
  return net::Answer::kTrue;
}

net::Answer TriangleNode::query_edge(Edge e) const {
  if (!consistent_) return net::Answer::kInconsistent;
  return knows_edge(e) ? net::Answer::kTrue : net::Answer::kFalse;
}

std::vector<oracle::TrianglePartners> TriangleNode::list_triangles() const {
  std::vector<oracle::TrianglePartners> out;
  const auto nbrs = view_.neighbors();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (knowledge_.contains(Edge(nbrs[i], nbrs[j]))) {
        out.push_back({nbrs[i], nbrs[j]});
      }
    }
  }
  return out;
}

namespace {

void extend_local_clique(const EdgeKnowledge& known,
                         std::vector<NodeId>& current,
                         const std::vector<NodeId>& candidates,
                         std::size_t need,
                         std::vector<std::vector<NodeId>>& out) {
  if (need == 0) {
    out.push_back(current);
    return;
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates.size() - i < need) break;
    std::vector<NodeId> next;
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      if (known.contains(Edge(candidates[i], candidates[j]))) {
        next.push_back(candidates[j]);
      }
    }
    if (next.size() + 1 >= need) {  // prune: not enough candidates left
      current.push_back(candidates[i]);
      extend_local_clique(known, current, next, need - 1, out);
      current.pop_back();
    }
  }
}

}  // namespace

std::vector<std::vector<NodeId>> TriangleNode::list_cliques(int k) const {
  DYNSUB_CHECK(k >= 3);
  std::vector<std::vector<NodeId>> out;
  std::vector<NodeId> current;
  const auto candidates = view_.neighbors();
  extend_local_clique(knowledge_, current, candidates,
                      static_cast<std::size_t>(k - 1), out);
  return out;
}

FlatMap<Edge, Timestamp> TriangleNode::known_edges() const {
  // Bulk build (see Robust2HopNode::known_edges): knowledge_ never stores
  // incident edges, so appending them and sorting once is exact.
  auto items = std::move(knowledge_.alive_edges()).take_values();
  items.reserve(items.size() + view_.degree());
  const NodeId v = view_.self();
  for (const auto& [u, t] : view_.incident()) {
    items.emplace_back(Edge(v, u), t);
  }
  return FlatMap<Edge, Timestamp>::from_unsorted(std::move(items));
}

}  // namespace dynsub::core
