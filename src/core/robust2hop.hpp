// Theorem 7 (Appendix A): the robust 2-hop neighborhood data structure.
//
// Each node v maintains S_v = R^{v,2}_i, the set of (v,i)-robust edges: its
// incident edges plus every 2-hop edge {u,w} whose insertion time is at least
// that of a currently-present connecting edge {v,u} (resp. {v,w}).  The
// structure is exact whenever its consistency flag is raised, and handles an
// arbitrary number of insertions/deletions per round in O(1) amortized
// rounds.
//
// Mechanics (the paper's protocol, hardened per DESIGN.md):
//  * a FIFO queue of pending own-edge events, drained one per round (this is
//    what the O(log n) bandwidth forces);
//  * dequeued insertions are sent only to neighbors u with t_e >= t_{v,u}
//    (the robustness filter);
//  * dequeued deletions are broadcast to all neighbors, carrying a 1-bit
//    "superseded" indication when the edge has already been re-inserted
//    (deviations D1/D5);
//  * non-incident knowledge lives in EdgeKnowledge: imaginary timestamps
//    plus per-endpoint vouch states, which is what makes stale backlogged
//    relays harmless (see edge_knowledge.hpp for the full story);
//  * IsEmpty control bits make C_v false whenever v's own queue, or a
//    neighbor's queue, is non-empty.
#pragma once

#include <vector>

#include "common/fifo.hpp"
#include "common/flat_set.hpp"
#include "core/edge_knowledge.hpp"
#include "net/local_view.hpp"
#include "net/node.hpp"

namespace dynsub::core {

class Robust2HopNode final : public net::NodeProgram {
 public:
  explicit Robust2HopNode(NodeId self, std::size_t n) : view_(self) {
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

  /// Query of the robust 2-hop neighborhood listing problem: true iff the
  /// edge is (v,i)-robust; false iff it is not; no communication.
  [[nodiscard]] net::Answer query_edge(Edge e) const;

  /// The maintained edge set S_v (incident edges with true timestamps plus
  /// alive 2-hop knowledge with imaginary ones); == R^{v,2}_i whenever
  /// consistent.  Exposed for audits and for building on top.
  [[nodiscard]] FlatMap<Edge, Timestamp> known_edges() const;

  [[nodiscard]] const net::LocalView& local_view() const { return view_; }

 private:
  struct Pending {
    Edge edge;
    EventKind kind;
    /// Insertion time of the edge at enqueue (send filter; for deletions,
    /// the insertion time the deleted incarnation had).
    Timestamp t_event;
    friend bool operator==(const Pending&, const Pending&) = default;
  };

  net::LocalView view_;
  EdgeKnowledge knowledge_;
  Fifo<Pending> queue_;     // Q_v
  bool consistent_ = true;  // C_v
  bool busy_at_send_ = false;
};

}  // namespace dynsub::core
