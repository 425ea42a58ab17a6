// Theorem 6: the robust 3-hop neighborhood, and Theorem 5: 4-/5-cycle
// listing on top of it.
//
// Each node v maintains, for every edge e it has heard of, the set P_e of
// *discovery paths*: v-rooted paths of length <= 3 along which e was
// learned.  An edge is considered present (a member of the maintained set
// S~_v) while it has at least one surviving path.  The paper proves that
// whenever C_v = true,
//
//     R^{v,2}_i  U  (R^{v,3}_{i-1} \ R^{v,2}_{i-1})
//       is a subset of  S~_{v,i}  is a subset of
//     E^{v,2}_i  U  (E^{v,3}_{i-1} \ E^{v,2}_{i-1}),
//
// i.e. S~ contains every robust 3-hop edge and nothing outside the (slightly
// lagged) 3-hop neighborhood.  That sandwich is exactly what 4-cycle and
// 5-cycle listing need: every k-cycle (k in {4,5}) through v whose newest
// edge is "opposite" v lies entirely in R^{v,3}, so some node of every cycle
// lists it, while soundness follows from the upper containment.
//
// Wire protocol (paper Section 4):
//  * an inserted incident edge {v,u} is enqueued and eventually broadcast as
//    the 1-edge path [v,u];
//  * a received path that does not contain the receiver is prepended with
//    the receiver, every prefix is recorded as a discovery path, and the
//    extension is re-broadcast while it still has <= 2 edges (so insertions
//    travel exactly 3 hops);
//  * a deleted edge is broadcast as (e, l) with hop budget l starting at 0;
//    receivers drop every stored path containing e and re-broadcast
//    (e, l+1) while l <= 1 (deletions travel one hop further than the
//    paths they might have to kill);
//  * queues are FIFO -- the causal ordering this gives per relay chain is
//    load-bearing (a deletion relayed by u can never overtake the
//    re-insertion u relayed earlier);
//  * queue entries are deduplicated (see enqueue_unique), and a node never
//    re-forwards the echo [u, v] of its own incident edge: it already
//    broadcast that edge itself, so the echo carries nothing new.
//
// Two departures from the paper's literal rules close races that the FIFO
// ordering alone does not:
//  * own topology changes update the path set at react time; only their
//    broadcast waits in the queue (a purge applied at dequeue could run long
//    after the link came back and destroy the knowledge relayed since);
//  * a deletion relay kills only the paths learned along the chain it came
//    down (first hop `chain`, and second hop `via` once forwarded).  Each
//    chain's paths are written only by that chain's FIFO streams, so
//    last-write-wins is causally correct per chain, while the paper's global
//    removal lets a stale relay from one chain erase fresh knowledge that
//    arrived through another.
//
// Storage: one sorted set of PathKeys, ordered by hops, and nothing else per
// edge.  Every path learned through neighbor `chain` is one contiguous range
// of it, and every path through `chain, via` a sub-range, so a deletion relay
// visits only the paths it can kill.  The set is prefix-closed (see add_path
// and remove_paths_via), and an edge is in S~_v exactly while some stored
// path ends in it.  A presence query looks up the few key shapes that can
// end in e rather than scanning: [u] when e = {v, u}; otherwise, for
// e = {a, b}, [a, b], [b, a], and [c, a, b] / [c, b, a] for each distinct
// first hop c, which it visits by jumping from one first hop's range to the
// next.
//
// Consistency (paper's two-round rule): C_v is true only if for both round i
// and round i-1 the node's queue stayed empty and no neighbor declared
// IsEmpty = false or AreNeighborsEmpty = false; the latter bit gives v one
// round-lagged visibility into queues at distance 2, which is how far
// relevant relays sit.
#pragma once

#include <array>
#include <vector>

#include "common/fifo.hpp"
#include "common/flat_set.hpp"
#include "net/local_view.hpp"
#include "net/node.hpp"
#include "oracle/subgraphs.hpp"

namespace dynsub::core {

/// A v-rooted discovery path, stored as the sequence of hops after v.
/// Hops past the path's length are kNoNode, so the hops alone are the key.
/// Keys sort by their hops, which keeps every path with a given first hop
/// (and first two hops) contiguous in a sorted set; kNoNode is the largest
/// NodeId, so a path sorts after its extensions, inside the same range.
struct PathKey {
  std::array<NodeId, 3> hops{kNoNode, kNoNode, kNoNode};

  friend bool operator==(const PathKey&, const PathKey&) = default;
  /// Lexicographic over the hops: the first two as one 64-bit word, then
  /// the third.
  friend bool operator<(const PathKey& x, const PathKey& y) {
    const std::uint64_t hx = (std::uint64_t{x.hops[0]} << 32) | x.hops[1];
    const std::uint64_t hy = (std::uint64_t{y.hops[0]} << 32) | y.hops[1];
    return hx < hy || (hx == hy && x.hops[2] < y.hops[2]);
  }

  /// Number of edges (1..3 for a stored path): the hops before the first
  /// kNoNode.
  [[nodiscard]] std::size_t length() const {
    std::size_t len = 0;
    while (len < hops.size() && hops[len] != kNoNode) ++len;
    return len;
  }

  /// True when edge e is one of the path's edges (root is the owner node).
  [[nodiscard]] bool contains(NodeId root, Edge e) const {
    NodeId prev = root;
    for (std::size_t j = 0; j < hops.size() && hops[j] != kNoNode; ++j) {
      if (Edge(prev, hops[j]) == e) return true;
      prev = hops[j];
    }
    return false;
  }

  /// The path's last edge, the one it is a discovery path of.
  [[nodiscard]] Edge last_edge(NodeId root) const {
    if (hops[1] == kNoNode) return Edge(root, hops[0]);
    if (hops[2] == kNoNode) return Edge(hops[0], hops[1]);
    return Edge(hops[1], hops[2]);
  }
};

struct Robust3HopOptions {
  /// The paper re-forwards deletion relays while l <= 1, which lets one
  /// deletion fan in as Theta(deg) distinct (e, 2, via) items at a
  /// distance-2 node.  With relay-chain scoping those l = 2 relays can
  /// never match a stored path (the via hop is never an endpoint of e),
  /// so the default forwards only on l = 0 receipt.  The EXP-ABL2
  /// ablation measures the congestion cost of the paper-literal rule.
  bool paper_literal_l2_forward = false;
};

class Robust3HopNode final : public net::NodeProgram {
 public:
  using Options = Robust3HopOptions;

  explicit Robust3HopNode(NodeId self, std::size_t n,
                          Options options = Options{})
      : options_(options), view_(self) {
    (void)n;
  }

  void react_and_send(const net::NodeContext& ctx,
                      std::span<const EdgeEvent> events,
                      net::Outbox& out) override;
  void receive_and_update(const net::NodeContext& ctx,
                          const net::Inbox& in) override;

  [[nodiscard]] bool consistent() const override { return consistent_; }
  [[nodiscard]] std::size_t queue_length() const override {
    return queue_.size();
  }

  /// Robust 3-hop neighborhood listing query (paper Section 3): true if the
  /// edge is in the maintained set, false if it is (promised) outside the
  /// 3-hop neighborhood, inconsistent while updating.
  [[nodiscard]] net::Answer query_edge(Edge e) const;

  /// k-cycle listing query, k in {4, 5}: `cycle` is the vertex sequence of
  /// the candidate cycle (self must be one of its vertices); true iff every
  /// consecutive (wrapping) pair is a maintained edge.
  [[nodiscard]] net::Answer query_cycle(std::span<const NodeId> cycle) const;

  /// The maintained edge set S~_v (edges with a surviving discovery path).
  [[nodiscard]] FlatSet<Edge> known_edges() const;

  /// Locally enumerated 4-cycles through self, canonicalized like the
  /// oracle's (self need not be the minimal vertex; entries are oracle
  /// Cycle4 keys).  Used by examples and soundness tests.
  [[nodiscard]] std::vector<oracle::Cycle4> list_4cycles() const;

  /// Locally enumerated 5-cycles through self.
  [[nodiscard]] std::vector<oracle::Cycle5> list_5cycles() const;

  [[nodiscard]] const net::LocalView& local_view() const { return view_; }

  /// Every stored discovery path, ordered by hops (for tests and benches
  /// that probe the mechanism itself).
  [[nodiscard]] const FlatSet<PathKey>& paths() const { return paths_; }

 public:
  struct Pending {
    enum class Type : std::uint8_t { kInsertPath, kDeleteEdge };
    Type type;
    // kInsertPath: hops after self (count = len_or_ell, 1 or 2).
    // kDeleteEdge: a[0], a[1] are the edge endpoints; len_or_ell is l;
    // via is the upstream hop the relay arrived through (kNoNode at l=0).
    std::array<NodeId, 2> a{kNoNode, kNoNode};
    std::uint8_t len_or_ell = 0;
    NodeId via = kNoNode;
    friend bool operator==(const Pending&, const Pending&) = default;
  };

  /// Helper for order-aware duplicate suppression (see the .cpp).
  struct PendingView {
    const Pending* item;
    /// Writes the edges the item mentions into out[0..1]; returns count.
    int edges(NodeId self, Edge out[2]) const;
  };

 private:
  using PendingKey = std::array<std::uint64_t, 2>;

  static PendingKey key_of(const Pending& p) {
    return {(static_cast<std::uint64_t>(p.type) << 40) |
                (static_cast<std::uint64_t>(p.len_or_ell) << 32) | p.a[0],
            (static_cast<std::uint64_t>(p.via) << 32) | p.a[1]};
  }

  /// FIFO enqueue with order-aware duplicate suppression.
  void enqueue_unique(const Pending& p);

  /// Records every prefix of the v-rooted path given by `hops` as a
  /// discovery path of its last edge.
  void add_path(std::span<const NodeId> hops);

  /// True when some stored path ends in e, i.e. e is in S~_v.
  [[nodiscard]] bool has_edge(Edge e) const;

  /// Drops every stored discovery path that traverses e and was learned
  /// through neighbor `chain` -- and, when via != kNoNode, whose second
  /// hop is `via` (relay-chain-scoped deletion; see the .cpp).
  void remove_paths_via(Edge e, NodeId chain, NodeId via);

  Options options_;
  net::LocalView view_;
  FlatSet<PathKey> paths_;  // S_v, ordered by hops, prefix-closed
  Fifo<Pending> queue_;     // Q_v
  FlatSet<PendingKey> queued_keys_;
  bool consistent_ = true;
  bool busy_at_send_ = false;
  bool quiet_prev_ = true;
  bool neighbors_busy_prev_ = false;  // feeds AreNeighborsEmpty next round
};

}  // namespace dynsub::core
