// The Section 1.3 strawman: 2-hop tracking *without* timestamps.
//
// "At a first glance, this task may seem easy: with every insertion of an
//  edge e = {v,u}, each of its endpoints v enqueues e and sends it to every
//  neighbor w when dequeued ... However, this is insufficient because the
//  graph may also undergo edge deletions."
//
// This node implements exactly that naive protocol, including the
// timestamp-free purge rule (on a local deletion {v,u}, forget {u,z} only if
// the other witness {v,z} is unknown).  The paper's flickering adversary
// makes it *confidently wrong*: the far edge of a triangle is deleted, the
// two near edges flicker in sync with the endpoints' (congested) deletion
// broadcasts, and the node keeps reporting the dead triangle while flying
// the consistent flag.  The EXP-ABL1 bench and the flicker integration test
// reproduce that failure and show the Theorem 7 structure surviving the
// identical schedule.
#pragma once

#include "common/fifo.hpp"
#include "common/flat_set.hpp"
#include "net/local_view.hpp"
#include "net/node.hpp"

namespace dynsub::baseline {

class NaiveTwoHopNode final : public net::NodeProgram {
 public:
  NaiveTwoHopNode(NodeId self, std::size_t n) : view_(self) { (void)n; }

  void react_and_send(const net::NodeContext& ctx,
                      std::span<const EdgeEvent> events,
                      net::Outbox& out) override;
  void receive_and_update(const net::NodeContext& ctx,
                          const net::Inbox& in) override;

  [[nodiscard]] bool consistent() const override { return consistent_; }
  [[nodiscard]] std::size_t queue_length() const override {
    return queue_.size();
  }

  [[nodiscard]] net::Answer query_edge(Edge e) const;

  [[nodiscard]] const FlatSet<Edge>& known_edges() const { return known_; }

  [[nodiscard]] const net::LocalView& local_view() const { return view_; }

 private:
  struct Pending {
    Edge edge;
    EventKind kind;
  };

  net::LocalView view_;
  FlatSet<Edge> known_;
  Fifo<Pending> queue_;
  bool consistent_ = true;
  bool busy_at_send_ = false;
};

}  // namespace dynsub::baseline
