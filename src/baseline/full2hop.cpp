#include "baseline/full2hop.hpp"

#include "common/check.hpp"
#include "net/message.hpp"

namespace dynsub::baseline {

std::size_t FullTwoHopNode::chunk_bits() const {
  const std::size_t budget = net::bandwidth_bits(n_);
  const std::size_t header = 3 + 2 * net::node_id_bits(n_);
  DYNSUB_CHECK(budget > header);
  return budget - header;
}

void FullTwoHopNode::enqueue_snapshot(NodeId dst) {
  // Snapshot N_v as an n-bit bitmap, pre-chunked; FIFO order guarantees any
  // later notices are applied on top of this state at the receiver.
  DenseBitset snap(n_);
  for (const auto& [u, ts] : view_.incident()) {
    (void)ts;
    snap.set(u);
  }
  const std::size_t cb = chunk_bits();
  auto& q = out_queues_[dst];
  std::uint32_t index = 0;
  for (std::size_t from = 0; from < n_; from += cb, ++index) {
    const std::size_t bits = std::min(cb, n_ - from);
    net::WireMessage m;
    m.kind = net::WireMessage::Kind::kSnapshotChunk;
    m.nodes[0] = view_.self();
    m.aux = index;
    m.aux2 = static_cast<std::uint32_t>(bits);
    m.blob.resize((bits + 7) / 8);
    snap.extract_bits_into(from, bits, m.blob.data());
    q.push_back(std::move(m));
  }
}

void FullTwoHopNode::react_and_send(const net::NodeContext& ctx,
                                    std::span<const EdgeEvent> events,
                                    net::Outbox& out) {
  const NodeId v = ctx.self;
  view_.apply(events, ctx.round);

  for (const auto& ev : events) {
    const NodeId u = ev.edge.other(v);
    if (ev.kind == EventKind::kDelete) {
      // The link and everything learned through it is gone.
      out_queues_.erase(u);
      nbr_sets_.erase(u);
      // Tell the remaining neighbors that u left N_v.
      for (auto& [w, q] : out_queues_) {
        (void)w;
        q.push_back(net::WireMessage::edge_delete(ev.edge));
      }
    } else {
      // Fresh link: new queue, full snapshot toward u, notice to everyone.
      out_queues_.try_emplace(u, Fifo<net::WireMessage>{});
      nbr_sets_.try_emplace(u, DenseBitset(n_));
      for (auto& [w, q] : out_queues_) {
        if (w == u) continue;
        q.push_back(net::WireMessage::edge_insert(ev.edge));
      }
      enqueue_snapshot(u);
    }
  }

  // Drain one message per link per round.
  busy_at_send_ = false;
  for (auto& [u, q] : out_queues_) {
    if (q.empty()) continue;
    busy_at_send_ = true;
    out.send(u, q.front());
    q.pop_front();
  }
  if (busy_at_send_) out.declare_busy();
}

void FullTwoHopNode::receive_and_update(const net::NodeContext& ctx,
                                        const net::Inbox& in) {
  (void)ctx;
  for (const auto& [from, msg] : in.payloads) {
    auto it = nbr_sets_.find(from);
    if (it == nbr_sets_.end()) continue;  // link raced away this round
    using Kind = net::WireMessage::Kind;
    switch (msg.kind) {
      case Kind::kSnapshotChunk: {
        DYNSUB_CHECK(msg.nodes[0] == from);
        const std::size_t cb = chunk_bits();
        it->second.deposit_bits(static_cast<std::size_t>(msg.aux) * cb,
                                msg.aux2, msg.blob.bytes());
        break;
      }
      case Kind::kEdgeInsert:
      case Kind::kEdgeDelete: {
        const Edge e(msg.nodes[0], msg.nodes[1]);
        DYNSUB_CHECK(e.touches(from));
        const NodeId z = e.other(from);
        if (msg.kind == Kind::kEdgeInsert) {
          it->second.set(z);
        } else {
          it->second.reset(z);
        }
        break;
      }
      default:
        DYNSUB_CHECK_MSG(false, "FullTwoHopNode: unexpected message kind");
    }
  }
  bool queues_empty = true;
  for (const auto& [u, q] : out_queues_) {
    (void)u;
    queues_empty &= q.empty();
  }
  consistent_ = !busy_at_send_ && queues_empty && in.busy_neighbors.empty();
}

std::size_t FullTwoHopNode::queue_length() const {
  std::size_t total = 0;
  for (const auto& [u, q] : out_queues_) {
    (void)u;
    total += q.size();
  }
  return total;
}

net::Answer FullTwoHopNode::query_edge(Edge e) const {
  if (!consistent_) return net::Answer::kInconsistent;
  const NodeId v = view_.self();
  if (e.touches(v)) {
    return view_.has_neighbor(e.other(v)) ? net::Answer::kTrue
                                          : net::Answer::kFalse;
  }
  for (const auto& [u, bits] : nbr_sets_) {
    if (e.touches(u) && bits.test(e.other(u))) return net::Answer::kTrue;
  }
  return net::Answer::kFalse;
}

net::Answer FullTwoHopNode::query_pattern(
    std::span<const NodeId> vertices,
    std::span<const std::pair<std::size_t, std::size_t>> pattern_edges)
    const {
  if (!consistent_) return net::Answer::kInconsistent;
  const NodeId v = view_.self();
  bool self_present = false;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    self_present |= (vertices[i] == v);
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (vertices[i] == vertices[j]) return net::Answer::kFalse;
    }
  }
  DYNSUB_CHECK_MSG(self_present, "query_pattern: self not in candidate");
  auto wanted = [&](std::size_t i, std::size_t j) {
    for (const auto& [a, b] : pattern_edges) {
      if ((a == i && b == j) || (a == j && b == i)) return true;
    }
    return false;
  };
  auto present = [&](NodeId a, NodeId b) {
    const Edge e(a, b);
    if (e.touches(v)) return view_.has_neighbor(e.other(v));
    for (const auto& [u, bits] : nbr_sets_) {
      if (e.touches(u) && bits.test(e.other(u))) return true;
    }
    return false;
  };
  // Pairs involving v first: always decidable, and once they match the
  // pattern, every candidate vertex's adjacency to v equals its pattern
  // adjacency -- which is what makes the remaining pairs decidable for
  // the closed-neighborhood patterns (every H-edge touches N_H[x] for
  // every vertex x; all Theorem 2 patterns qualify).
  std::size_t self_index = 0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] == v) self_index = i;
  }
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (i == self_index) continue;
    if (view_.has_neighbor(vertices[i]) != wanted(self_index, i)) {
      return net::Answer::kFalse;
    }
  }
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (i == self_index || j == self_index) continue;
      const bool decidable = view_.has_neighbor(vertices[i]) ||
                             view_.has_neighbor(vertices[j]);
      // With the v-pairs already matched, an undecidable pair means the
      // pattern itself has an edge-slot outside every closed
      // neighborhood -- a pattern this structure cannot decide (e.g. the
      // far edge of a C5).  That is a caller error, not a runtime state.
      DYNSUB_CHECK_MSG(decidable,
                       "query_pattern: pair outside the 2-hop reach of self"
                       " -- pattern not closed-neighborhood-decidable");
      if (present(vertices[i], vertices[j]) != wanted(i, j)) {
        return net::Answer::kFalse;
      }
    }
  }
  return net::Answer::kTrue;
}

FlatSet<Edge> FullTwoHopNode::known_edges() const {
  std::size_t upper = view_.degree();
  for (const auto& [u, bits] : nbr_sets_) {
    (void)u;
    upper += bits.count();
  }
  std::vector<Edge> edges;
  edges.reserve(upper);
  const NodeId v = view_.self();
  for (const auto& [u, ts] : view_.incident()) {
    (void)ts;
    edges.push_back(Edge(v, u));
  }
  for (const auto& [u, bits] : nbr_sets_) {
    for (NodeId z = 0; z < n_; ++z) {
      if (z != u && bits.test(z)) edges.push_back(Edge(u, z));
    }
  }
  return FlatSet<Edge>::from_unsorted(std::move(edges));
}

}  // namespace dynsub::baseline
