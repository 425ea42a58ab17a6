#include "core/triangle.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"

namespace dynsub::core {

const TriangleNode::State& TriangleNode::state() const {
  static const State kEmpty(kNoNode);
  return state_ != nullptr ? *state_ : kEmpty;
}

TriangleNode::State& TriangleNode::own_state() {
  if (state_ == nullptr) state_ = std::make_unique<State>(self_);
  return *state_;
}

void TriangleNode::State::enqueue_unique(const Pending& p) {
  if (std::find(queue.begin(), queue.end(), p) == queue.end()) {
    queue.push_back(p);
  }
}

/// Called after learning / refreshing a mark-(a) edge {a,b} with imaginary
/// timestamp t'.  If exactly one of the connecting edges is older than the
/// other and the newer one is at most t', the older incident edge is owed
/// to the far endpoint (pattern (b) relay).
void TriangleNode::State::maybe_enqueue_hint(NodeId a, NodeId b,
                                             Timestamp t_prime) {
  if (!view.has_neighbor(a) || !view.has_neighbor(b)) return;
  const Timestamp ta = view.t(a);
  const Timestamp tb = view.t(b);
  const NodeId v = view.self();
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
  if (state_ == nullptr && events.empty()) {
    // Idle: nothing queued, nothing to learn, nothing to send.
    busy_at_send_ = false;
    return;
  }
  State& s = own_state();
  const NodeId v = ctx.self;

  // --- Topology changes (paper step 2). ------------------------------------
  // Mark-(a) items go straight into Q_v, deletes first (with the timestamp
  // the edge had before view.apply drops it), then inserts.  The stale-hint
  // purge between them erases only mark-(b) items, so the deletes keep
  // their place.
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kDelete) continue;
    s.queue.push_back({Pending::Type::kMarkA, ev.edge, EventKind::kDelete,
                       s.view.t(ev.edge.other(v)), kNoNode});
  }
  s.view.apply(events, ctx.round);
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kDelete) continue;
    const NodeId u = ev.edge.other(v);
    s.knowledge.retract_neighbor(u, s.view);
    // Pending mark-(b) items that relied on the deleted link (either as
    // the owed edge or as the link to the recipient) are stale; drop them.
    // Any still-needed pattern is re-derived from re-insertion broadcasts.
    s.queue.erase_if([&](const Pending& p) {
      return p.type == Pending::Type::kMarkB &&
             (p.edge.touches(u) || p.dst == u);
    });
  }
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kInsert) continue;
    s.queue.push_back({Pending::Type::kMarkA, ev.edge, EventKind::kInsert,
                       ctx.round, kNoNode});
  }

  // --- Communication (paper step 3). ---------------------------------------
  busy_at_send_ = !s.queue.empty();
  if (busy_at_send_) {
    out.declare_busy();
    const Pending item = s.queue.front();
    s.queue.pop_front();
    if (item.type == Pending::Type::kMarkA) {
      if (item.kind == EventKind::kInsert) {
        for (const auto& [u, t_vu] : s.view.incident()) {
          if (item.t_event >= t_vu) {
            out.send(u, net::WireMessage::edge_insert(item.edge));
          }
        }
      } else {
        // Deletion: broadcast retraction, with the superseded bit when the
        // edge has already been re-inserted (D1/D5).
        auto msg = net::WireMessage::edge_delete(item.edge);
        msg.ttl = s.view.has_neighbor(item.edge.other(v)) ? 1 : 0;
        for (const auto& [u, t_vu] : s.view.incident()) {
          (void)t_vu;
          out.send(u, msg);
        }
      }
    } else {
      // Mark (b): one hint to one neighbor.  Stale hints (owed edge gone
      // or re-timestamped, or recipient link gone) are dropped; the purge
      // and re-insertion machinery re-derives whatever is still owed.
      const NodeId other = item.edge.other(v);
      if (s.view.has_neighbor(item.dst) && s.view.has_neighbor(other) &&
          s.view.t(other) == item.t_event) {
        out.send(item.dst, net::WireMessage::triangle_hint(item.edge));
      }
    }
  }
}

void TriangleNode::receive_and_update(const net::NodeContext& ctx,
                                      const net::Inbox& in) {
  const NodeId v = ctx.self;
  // A payload, like an incident event, creates the State.
  State* s = in.payloads.empty() ? state_.get() : &own_state();
  for (const auto& [from, msg] : in.payloads) {
    using Kind = net::WireMessage::Kind;
    const Edge e(msg.nodes[0], msg.nodes[1]);
    switch (msg.kind) {
      case Kind::kEdgeInsert: {
        DYNSUB_CHECK(e.touches(from));
        if (e.touches(v)) break;  // own edges are tracked locally
        const Timestamp t_prime =
            s->knowledge.accept_insert(e, from, s->view.t(from));
        // Pattern (b) detection (paper step 4).
        s->maybe_enqueue_hint(e.lo(), e.hi(), t_prime);
        break;
      }
      case Kind::kEdgeDelete: {
        DYNSUB_CHECK(e.touches(from));
        if (e.touches(v)) break;
        s->knowledge.accept_delete(e, from, msg.ttl != 0, s->view);
        break;
      }
      case Kind::kTriangleHint: {
        // The sender owes us its incident edge e = {from, x}: accept only
        // while both our connecting edges exist, and stamp it older than
        // both (pattern (b) in our coordinates).
        DYNSUB_CHECK(e.touches(from));
        const NodeId x = e.other(from);
        if (x == v) break;
        if (s->view.has_neighbor(from) && s->view.has_neighbor(x)) {
          s->knowledge.accept_hint(
              e, from, std::min(s->view.t(from), s->view.t(x)) - 1);
        }
        break;
      }
      default:
        DYNSUB_CHECK_MSG(false, "TriangleNode: unexpected message kind");
    }
  }
  const bool quiet = !busy_at_send_ && (s == nullptr || s->queue.empty()) &&
                     in.busy_neighbors.empty();
  consistent_ = quiet && quiet_prev_;  // deviation D2: two-round rule
  quiet_prev_ = quiet;
  if (consistent_ && s != nullptr) s->knowledge.prune_dead();
}

bool TriangleNode::knows_edge(Edge e) const {
  const State& s = state();
  if (e.touches(self_)) return s.view.has_neighbor(e.other(self_));
  return s.knowledge.contains(e);
}

net::Answer TriangleNode::query_triangle(NodeId u, NodeId w) const {
  if (!consistent_) return net::Answer::kInconsistent;
  DYNSUB_CHECK(u != self_ && w != self_ && u != w);
  const State& s = state();
  const bool yes = s.view.has_neighbor(u) && s.view.has_neighbor(w) &&
                   s.knowledge.contains(Edge(u, w));
  return yes ? net::Answer::kTrue : net::Answer::kFalse;
}

net::Answer TriangleNode::query_clique(std::span<const NodeId> others) const {
  if (!consistent_) return net::Answer::kInconsistent;
  const State& s = state();
  for (std::size_t i = 0; i < others.size(); ++i) {
    DYNSUB_CHECK(others[i] != self_);
    if (!s.view.has_neighbor(others[i])) return net::Answer::kFalse;
    for (std::size_t j = i + 1; j < others.size(); ++j) {
      if (others[i] == others[j]) return net::Answer::kFalse;
      if (!s.knowledge.contains(Edge(others[i], others[j]))) {
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
  const State& s = state();
  // Neighbour pairs straight from the sorted incident map, with no copy.
  const auto& incident = s.view.incident();
  for (auto i = incident.begin(); i != incident.end(); ++i) {
    for (auto j = std::next(i); j != incident.end(); ++j) {
      if (s.knowledge.contains(Edge(i->first, j->first))) {
        out.push_back({i->first, j->first});
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
  const State& s = state();
  // The recursion builds a fresh candidate vector at every level anyway, so
  // the top level's copy of the neighbour list costs no extra kind of work.
  const auto candidates = s.view.neighbors();
  extend_local_clique(s.knowledge, current, candidates,
                      static_cast<std::size_t>(k - 1), out);
  return out;
}

FlatMap<Edge, Timestamp> TriangleNode::known_edges() const {
  // Bulk build (see Robust2HopNode::known_edges): the knowledge never stores
  // incident edges, so appending them and sorting once is exact.
  const State& s = state();
  auto items = std::move(s.knowledge.alive_edges()).take_values();
  items.reserve(items.size() + s.view.degree());
  for (const auto& [u, t] : s.view.incident()) {
    items.emplace_back(Edge(self_, u), t);
  }
  return FlatMap<Edge, Timestamp>::from_unsorted(std::move(items));
}

}  // namespace dynsub::core
