// Theorem 1 / Corollary 1: triangle and k-clique membership listing.
//
// Each node v maintains S_v = T^{v,2}_i: its incident edges plus every edge
// {u,w} matching one of the two temporal patterns of Figure 2:
//   (a) t_{u,w} >= t_{v,u} through a present connecting edge (the robust
//       2-hop neighborhood), or
//   (b) both {v,u} and {v,w} present and t_{u,w} strictly older than both.
// For the far edge of any triangle through v the two patterns are
// exhaustive, so whenever C_v = true, v can answer every triangle-membership
// query {v,u,w} -- and hence every k-clique membership query, since a node
// that knows all triangles through itself knows all edges of every clique
// it belongs to (Corollary 1).
//
// Pattern (b) needs the relay trick of the paper: when a node r learns a
// mark-(a) edge {a,b} between two of its neighbors whose connecting edges
// satisfy t_{r,a} < t_{r,b} <= t'_{a,b}, it owes its *older* incident edge
// {r,a} to b, and enqueues the mark-(b) item <{r,a}, b>.  Each such item is
// a single message to a single neighbor, so no link ever carries more than
// one item per inserted edge -- the congestion argument behind the O(1)
// amortized bound.
//
// Deviations from the paper's letter (full rationale in DESIGN.md):
//   D1/D5 -- deletions are broadcast with a 1-bit superseded flag, and
//         2-hop knowledge lives in EdgeKnowledge (per-endpoint vouch
//         states), which closes the stale-backlogged-relay race the
//         paper's proof glosses over;
//   D2 -- C_v requires two consecutive quiet rounds (closes the one-round
//         blind spot of mark-(b) relays: the trigger enqueue happens in the
//         receive half of the very round whose flags v has already seen).
#pragma once

#include <memory>
#include <vector>

#include "common/fifo.hpp"
#include "common/flat_set.hpp"
#include "core/edge_knowledge.hpp"
#include "net/local_view.hpp"
#include "net/node.hpp"
#include "oracle/subgraphs.hpp"

namespace dynsub::core {

class TriangleNode final : public net::NodeProgram {
 public:
  explicit TriangleNode(NodeId self, std::size_t n) : self_(self) { (void)n; }

  void react_and_send(const net::NodeContext& ctx,
                      std::span<const EdgeEvent> events,
                      net::Outbox& out) override;
  void receive_and_update(const net::NodeContext& ctx,
                          const net::Inbox& in) override;

  [[nodiscard]] bool consistent() const override { return consistent_; }
  [[nodiscard]] std::size_t queue_length() const override {
    return state_ != nullptr ? state_->queue.size() : 0;
  }

  /// Membership query: does {self, u, w} form a triangle right now?
  [[nodiscard]] net::Answer query_triangle(NodeId u, NodeId w) const;

  /// k-clique membership query: `others` are the k-1 nodes besides self.
  [[nodiscard]] net::Answer query_clique(std::span<const NodeId> others) const;

  /// Maintained-set query: is e in S_v (== T^{v,2}_i whenever consistent)?
  /// This is the uniform edge-query surface of the detector API; for edges
  /// incident to self it is exact presence.
  [[nodiscard]] net::Answer query_edge(Edge e) const;

  /// Membership listing: all triangles through self (partner pairs,
  /// sorted).  Exact whenever consistent() -- the audit asserts equality
  /// with the oracle's enumeration.
  [[nodiscard]] std::vector<oracle::TrianglePartners> list_triangles() const;

  /// Membership listing of k-cliques through self: each entry is the
  /// sorted list of the k-1 other members.
  [[nodiscard]] std::vector<std::vector<NodeId>> list_cliques(int k) const;

  /// S_v (== T^{v,2}_i whenever consistent); for audits.
  [[nodiscard]] FlatMap<Edge, Timestamp> known_edges() const;

 private:
  struct Pending {
    enum class Type : std::uint8_t { kMarkA, kMarkB };
    Type type;
    Edge edge;          // mark (a): the changed edge; mark (b): the owed edge
    EventKind kind;     // mark (a) only
    Timestamp t_event;  // mark (a): t_e at enqueue; mark (b): t of owed edge
    NodeId dst = kNoNode;  // mark (b): the single recipient
    friend bool operator==(const Pending&, const Pending&) = default;
  };

  /// Everything but the id and the flags.  Created at the node's first
  /// incident event or payload and never freed: a node that keeps losing
  /// and regaining its only edge would otherwise allocate on every regain.
  struct State {
    explicit State(NodeId self) : view(self) {}

    void enqueue_unique(const Pending& p);
    void maybe_enqueue_hint(NodeId a, NodeId b, Timestamp t_prime);

    net::LocalView view;
    EdgeKnowledge knowledge;
    Fifo<Pending> queue;  // Q_v
  };

  /// The node's State, or an empty one shared by every idle node, so an
  /// idle node answers every query exactly as an empty State would.
  [[nodiscard]] const State& state() const;
  /// The node's State, created on first use.
  [[nodiscard]] State& own_state();
  [[nodiscard]] bool knows_edge(Edge e) const;

  // An idle node is these 24 bytes: the vtable pointer, the id and the
  // flags (which share one word), and a null State.
  NodeId self_;
  bool consistent_ = true;
  bool busy_at_send_ = false;
  bool quiet_prev_ = true;  // quiet(i-1), for the two-round rule (D2)
  std::unique_ptr<State> state_;
};

}  // namespace dynsub::core
