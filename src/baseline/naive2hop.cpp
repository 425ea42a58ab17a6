#include "baseline/naive2hop.hpp"

#include "common/check.hpp"

namespace dynsub::baseline {

void NaiveTwoHopNode::react_and_send(const net::NodeContext& ctx,
                                     std::span<const EdgeEvent> events,
                                     net::Outbox& out) {
  const NodeId v = ctx.self;
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kDelete) known_.erase(ev.edge);
  }
  view_.apply(events, ctx.round);
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kDelete) continue;
    const NodeId u = ev.edge.other(v);
    // Timestamp-free purge: keep {u,z} whenever the other witness {v,z}
    // is still known -- the exact rule the paper shows is unsound.
    known_.erase_if([&](const Edge& e) {
      if (!e.touches(u) || e.touches(v)) return false;
      return !view_.has_neighbor(e.other(u));
    });
  }
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kInsert) known_.insert(ev.edge);
    queue_.push_back({ev.edge, ev.kind});
  }

  busy_at_send_ = !queue_.empty();
  if (busy_at_send_) {
    out.declare_busy();
    const Pending item = queue_.front();
    queue_.pop_front();
    for (const auto& [u, t_vu] : view_.incident()) {
      (void)t_vu;
      out.send(u, item.kind == EventKind::kInsert
                      ? net::WireMessage::edge_insert(item.edge)
                      : net::WireMessage::edge_delete(item.edge));
    }
  }
}

void NaiveTwoHopNode::receive_and_update(const net::NodeContext& ctx,
                                         const net::Inbox& in) {
  const NodeId v = ctx.self;
  for (const auto& [from, msg] : in.payloads) {
    using Kind = net::WireMessage::Kind;
    const Edge e(msg.nodes[0], msg.nodes[1]);
    DYNSUB_CHECK(e.touches(from));
    if (e.touches(v)) continue;
    if (msg.kind == Kind::kEdgeInsert) {
      known_.insert(e);
    } else {
      DYNSUB_CHECK(msg.kind == Kind::kEdgeDelete);
      known_.erase(e);
    }
  }
  consistent_ =
      !busy_at_send_ && queue_.empty() && in.busy_neighbors.empty();
}

net::Answer NaiveTwoHopNode::query_edge(Edge e) const {
  if (!consistent_) return net::Answer::kInconsistent;
  return known_.contains(e) ? net::Answer::kTrue : net::Answer::kFalse;
}

}  // namespace dynsub::baseline
