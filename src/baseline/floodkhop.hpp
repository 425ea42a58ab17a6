// FloodKHop: bounded-bandwidth r-hop knowledge by flooding.
//
// The natural algorithm a practitioner would reach for when a problem needs
// edges beyond the robust subsets: flood every change with a TTL of r-1
// hops, and on a fresh link ship the endpoint's whole r-1-hop knowledge to
// the new neighbor, one O(log n)-bit item per link per round.
//
// This is the *measurement baseline* for the paper's lower-bound scenarios:
//  * on the Theorem 2 adversary (membership listing of a non-clique H) with
//    r = 2 its amortized cost grows ~ n / log n, matching the Omega bound;
//  * on the Theorem 4 / Figure 4 adversary (6-cycle listing) with r = 3 the
//    cost grows ~ sqrt(n) (the knowledge-dump across the two fresh links is
//    exactly the Omega(D) bits the proof charges for).
//
// It is not a fully general dynamic structure (a deletion that races a
// knowledge dump can leave ghosts); the lower-bound constructions insert /
// delete only between stabilization waits, where it is exact -- which is all
// the benches need, and is documented in DESIGN.md.
#pragma once

#include "common/fifo.hpp"
#include "common/flat_set.hpp"
#include "net/local_view.hpp"
#include "net/node.hpp"

namespace dynsub::baseline {

class FloodKHopNode final : public net::NodeProgram {
 public:
  /// radius r >= 2: maintain knowledge of edges within r hops.
  FloodKHopNode(NodeId self, std::size_t n, int radius)
      : radius_(radius), view_(self) {
    (void)n;
  }

  void react_and_send(const net::NodeContext& ctx,
                      std::span<const EdgeEvent> events,
                      net::Outbox& out) override;
  void receive_and_update(const net::NodeContext& ctx,
                          const net::Inbox& in) override;

  [[nodiscard]] bool consistent() const override { return consistent_; }
  [[nodiscard]] std::size_t queue_length() const override;

  /// Is e within the maintained r-hop knowledge?
  [[nodiscard]] net::Answer query_edge(Edge e) const;

  /// Cycle-listing query on the flooded knowledge (any length).  As with
  /// every membership query in the model, self must be on the cycle.
  [[nodiscard]] net::Answer query_cycle(std::span<const NodeId> cycle) const;

  /// Known edges with their hop estimates.
  [[nodiscard]] const FlatMap<Edge, std::uint8_t>& known_edges() const {
    return known_;
  }

 private:
  int radius_;
  net::LocalView view_;
  /// Edge -> hop estimate (0 = incident).
  FlatMap<Edge, std::uint8_t> known_;
  /// Outgoing FIFO per current neighbor.
  FlatMap<NodeId, Fifo<net::WireMessage>> out_queues_;
  bool consistent_ = true;
  bool busy_at_send_ = false;
};

}  // namespace dynsub::baseline
