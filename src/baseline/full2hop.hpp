// Lemma 1 (Appendix B): full 2-hop neighborhood listing in O(n / log n)
// amortized rounds.
//
// This is the paper's matching upper bound for Corollary 2: maintaining the
// *entire* 2-hop neighborhood (equivalently, membership listing of the
// 3-vertex path) is possible, but inherently ~n/log n more expensive than
// the robust subset of Theorem 7.  Each node keeps one FIFO update queue per
// neighbor and drains one message per link per round:
//
//  * an edge deletion {v,u} enqueues an O(1)-word notice on every neighbor
//    queue of both endpoints;
//  * an edge insertion {v,u} enqueues the same notice on every neighbor
//    queue -- plus a full snapshot of the endpoint's neighborhood (an n-bit
//    bitmap, pre-chunked into ceil(n / c log n) messages) on the queue
//    toward the new neighbor, which is what costs Theta(n / log n);
//  * receivers maintain one neighborhood bitmap per current neighbor; FIFO
//    order makes snapshot chunks and later notices compose correctly.
//
// The consistency flag is the usual IsEmpty scheme: v is consistent when all
// of its queues are empty and no neighbor declared a non-empty queue.
#pragma once

#include "common/bitset.hpp"
#include "common/fifo.hpp"
#include "common/flat_set.hpp"
#include "net/local_view.hpp"
#include "net/node.hpp"

namespace dynsub::baseline {

class FullTwoHopNode final : public net::NodeProgram {
 public:
  FullTwoHopNode(NodeId self, std::size_t n) : n_(n), view_(self) {}

  void react_and_send(const net::NodeContext& ctx,
                      std::span<const EdgeEvent> events,
                      net::Outbox& out) override;
  void receive_and_update(const net::NodeContext& ctx,
                          const net::Inbox& in) override;

  [[nodiscard]] bool consistent() const override { return consistent_; }
  [[nodiscard]] std::size_t queue_length() const override;

  /// 2-hop neighborhood listing query: is e in E^{v,2}?
  [[nodiscard]] net::Answer query_edge(Edge e) const;

  /// Remark 2: membership listing for patterns whose every edge touches
  /// the queried node's closed neighborhood (which covers every H the
  /// Theorem 2 adversary uses: P3, diamond, C4, ...).  `vertices` maps
  /// pattern indices to node ids (vertices[i] realizes pattern vertex i;
  /// self must appear); `pattern_edges` are index pairs.  Answers true iff
  /// every pattern edge is present AND every non-edge over `vertices` is
  /// absent (exact / induced membership, as Theorem 2's counting argument
  /// requires).  Aborts if an edge of the candidate lies outside E^{v,2}'s
  /// reach (the caller asked about a pattern this structure cannot decide).
  [[nodiscard]] net::Answer query_pattern(
      std::span<const NodeId> vertices,
      std::span<const std::pair<std::size_t, std::size_t>> pattern_edges)
      const;

  /// The full maintained edge set (== E^{v,2}_i whenever consistent).
  [[nodiscard]] FlatSet<Edge> known_edges() const;

  [[nodiscard]] const net::LocalView& local_view() const { return view_; }

 private:
  /// Bits of neighborhood bitmap that fit into one chunk message.
  [[nodiscard]] std::size_t chunk_bits() const;

  /// Enqueues a full snapshot of the current neighborhood toward `dst`.
  void enqueue_snapshot(NodeId dst);

  std::size_t n_;
  net::LocalView view_;
  /// Outgoing FIFO per current neighbor.
  FlatMap<NodeId, Fifo<net::WireMessage>> out_queues_;
  /// N_u bitmap for each current neighbor u.
  FlatMap<NodeId, DenseBitset> nbr_sets_;
  bool consistent_ = true;
  bool busy_at_send_ = false;
};

}  // namespace dynsub::baseline
