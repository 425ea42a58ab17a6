// The partitioned routing fabric: S shards, each owning a contiguous
// node-id range and its own Router, exchanging cross-shard traffic as
// encoded wire-v2 lane-batch frames at the round barrier.
//
// Geometry.  With S shards and L worker lanes per shard there are
// W = S * L staging *slots*; slot p = s * L + l is lane l of shard s.  The
// engine hands slot p a contiguous ascending chunk of shard s's active
// nodes, so slots in ascending p order cover the active set in ascending
// sender order -- the same invariant the single-router engine relied on.
// Every shard's Router is built with W ingress lanes, and all traffic from
// slot p lands on ingress lane p of whichever router owns the
// destination:
//
//   * destination owned by the sender's own shard -- staged straight into
//     that shard's Router (stage_payload / stage_busy / stage_two_hop),
//     exactly as the single-router path stages;
//   * destination owned by another shard d -- appended to the egress book
//     for (slot p, shard d), which the Transport seam serializes with
//     encode_lane_batch and delivers into router d's ingress lane p via
//     replace_lane.  Cross-shard traffic exists on the receiving side
//     *only* as a decoded wire-v2 frame -- there is no shared-memory
//     shortcut, so the same path later carries multi-process traffic.
//
// Because ingress lanes are indexed by source slot, each router's
// lane-major merge walks senders in ascending order no matter how many
// shards or lanes produced them: results stay byte-identical to the
// sequential engine at every (S, L).
//
// S == 1 collapses to exactly the pre-shard engine: one Router with L
// lanes, stage_outbox passed straight through, no egress books touched.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "net/partition.hpp"
#include "net/router.hpp"

namespace dynsub::net {

class ShardFabric {
 public:
  /// `lanes_per_shard` is the engine's worker-lane count L; `shards` is S.
  /// The fabric owns S routers with S * L ingress lanes each over the
  /// contiguous partition of [0, n).
  ShardFabric(std::size_t n, std::size_t lanes_per_shard, std::size_t shards);

  [[nodiscard]] std::size_t shards() const { return routers_.size(); }
  [[nodiscard]] std::size_t lanes_per_shard() const { return lanes_; }
  /// W = S * L: the staging-slot count, and every router's ingress lane
  /// count.
  [[nodiscard]] std::size_t slots() const { return slots_; }
  [[nodiscard]] const Partition& partition() const { return part_; }
  [[nodiscard]] std::size_t shard_of_slot(std::size_t slot) const {
    return slot / lanes_;
  }

  /// Starts a new round on every router (their wire sequence numbers stay
  /// in lockstep) and clears the egress books.
  void begin_round(Round round);

  /// Validates one sender's outbox against the *global* rules once, then
  /// stages it from `slot`: shard-local destinations straight into the
  /// owning router, cross-shard destinations into the egress books.  Same
  /// concurrency contract as Router::stage_outbox -- slot-local state
  /// only, so distinct slots never race.
  void stage_outbox(std::size_t slot, NodeId sender, Outbox& out,
                    const oracle::TimestampedGraph& graph);

  /// Barrier-side merge of every shard's router, in shard order.  Returns
  /// the round's global traffic totals.
  LaneTraffic merge();

  /// The merged inbox of `v`, from the router owning it.
  [[nodiscard]] Inbox inbox(NodeId v) const {
    if (routers_.size() == 1) return routers_[0].inbox(v);
    return routers_[part_.shard_of(v)].inbox(v);
  }

  [[nodiscard]] const Router& router(std::size_t shard) const {
    DYNSUB_DCHECK(shard < routers_.size());
    return routers_[shard];
  }
  [[nodiscard]] Router& router_mut(std::size_t shard) {
    DYNSUB_DCHECK(shard < routers_.size());
    return routers_[shard];
  }

  // --- the Transport surface: one ingress frame per (shard, slot) -------
  //
  // For each destination shard d, ingress lane `slot` carries either
  // shard d's own locally staged batch (slot belongs to d) or the egress
  // book (slot -> d).  Either way the frame serializes through
  // encode_lane_batch, decodes with decode_lane, and lands with
  // deliver() -- a pure byte boundary.

  /// True when the ingress frame (shard, slot) carries no payloads and no
  /// control bits (fault-free transports skip shipping it).
  [[nodiscard]] bool ingress_empty(std::size_t shard, std::size_t slot) const;

  /// The header the ingress frame (shard, slot) would serialize under.
  [[nodiscard]] LaneBatchHeader ingress_header(std::size_t shard,
                                               std::size_t slot) const;

  /// Appends the encoded ingress frame (shard, slot) to `out`.
  void encode_ingress(std::size_t shard, std::size_t slot,
                      std::vector<std::uint8_t>& out) const;

  /// Receive half: replaces router `shard`'s ingress lane `slot` with a
  /// decoded batch (traffic counters restored from its header).
  void deliver(std::size_t shard, std::size_t slot, LaneBatch&& batch);

  /// Drops the ingress frame (shard, slot): the owning router's staged
  /// lane when slot is local to `shard`, the egress book otherwise.
  void clear_ingress(std::size_t shard, std::size_t slot);

  /// Appends every destination the ingress frame (shard, slot) would have
  /// delivered to (duplicates included) -- the set a transport degrades
  /// when the frame is lost for good.
  void collect_destinations(std::size_t shard, std::size_t slot,
                            std::vector<NodeId>* out) const;

  /// This round's wire sequence number (identical on every router).
  [[nodiscard]] std::uint64_t wire_seq() const {
    return routers_[0].wire_seq();
  }
  [[nodiscard]] std::uint32_t wire_epoch(std::size_t shard,
                                         std::size_t slot) const {
    return routers_[shard].wire_epoch(slot);
  }
  void set_wire_epoch(std::size_t shard, std::size_t slot,
                      std::uint32_t epoch) {
    routers_[shard].set_wire_epoch(slot, epoch);
  }

  /// Total entry capacity retained across every router's routing buffers.
  [[nodiscard]] std::size_t retained_capacity() const;

 private:
  /// One staged cross-shard frame body: what slot `slot` accumulated for
  /// shard `shard` this round.  Buffers keep capacity across rounds.
  struct EgressBatch {
    std::vector<std::pair<NodeId, Inbox::Item>> payloads;
    std::vector<std::pair<NodeId, NodeId>> busy;
    std::vector<std::pair<NodeId, NodeId>> two_hop;
    LaneTraffic traffic;

    [[nodiscard]] bool empty() const {
      return payloads.empty() && busy.empty() && two_hop.empty();
    }
    void clear() {
      payloads.clear();
      busy.clear();
      two_hop.clear();
      traffic = LaneTraffic{};
    }
    [[nodiscard]] LaneBatchView view() const {
      return LaneBatchView{payloads, busy, two_hop};
    }
  };

  [[nodiscard]] EgressBatch& egress(std::size_t slot, std::size_t shard) {
    return egress_[slot * routers_.size() + shard];
  }
  [[nodiscard]] const EgressBatch& egress(std::size_t slot,
                                          std::size_t shard) const {
    return egress_[slot * routers_.size() + shard];
  }

  std::size_t n_;
  std::size_t lanes_;  // L
  std::size_t slots_;  // W = S * L
  Partition part_;
  Round round_ = 0;
  std::vector<Router> routers_;       // one per shard, W ingress lanes each
  std::vector<EgressBatch> egress_;   // [slot * S + shard]; foreign only
  std::vector<std::vector<NodeId>> slot_scratch_;  // duplicate-dst checks
};

}  // namespace dynsub::net
