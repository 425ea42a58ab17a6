#include "net/shard_fabric.hpp"

#include <limits>
#include <utility>

#include "net/message.hpp"
#include "oracle/timestamped_graph.hpp"

namespace dynsub::net {

ShardFabric::ShardFabric(std::size_t n, std::size_t lanes_per_shard,
                         std::size_t shards, RouterConfig config)
    : config_(config),
      n_(n),
      lanes_(lanes_per_shard),
      slots_(lanes_per_shard * shards),
      part_(Partition::contiguous(n, shards)) {
  DYNSUB_CHECK(lanes_per_shard >= 1 && shards >= 1);
  // The slot index rides in the 16-bit lane field of every frame header.
  DYNSUB_CHECK_MSG(
      slots_ <= std::numeric_limits<std::uint16_t>::max(),
      "shard fabric: " << shards << " shards x " << lanes_per_shard
                       << " lanes exceed the 16-bit wire lane space");
  routers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    routers_.emplace_back(n, slots_, config, part_.begin(s), part_.size(s));
  }
  if (shards > 1) {
    egress_.resize(slots_ * shards);
    slot_scratch_.resize(slots_);
  }
}

void ShardFabric::begin_round(Round round) {
  round_ = round;
  for (auto& r : routers_) r.begin_round(round);
  for (auto& e : egress_) e.clear();
}

void ShardFabric::stage_outbox(std::size_t slot, NodeId sender, Outbox& out,
                               const oracle::TimestampedGraph& graph) {
  DYNSUB_DCHECK(slot < slots_);
  if (routers_.size() == 1) {
    // The pre-shard fast path, bit for bit.
    routers_[0].stage_outbox(slot, sender, out, graph);
    return;
  }
  const std::size_t home = part_.shard_of(sender);
  Router& hr = routers_[home];
  hr.validate_outbox(sender, out, graph, slot_scratch_[slot]);
  for (auto& dm : out.directed_mut()) {
    const std::size_t d = part_.shard_of(dm.dst);
    std::uint64_t bits = 0;
    if (config_.enforce_bandwidth) bits = dm.msg.payload_bits(n_);
    if (d == home) {
      hr.stage_payload(slot, dm.dst, Inbox::Item{sender, std::move(dm.msg)},
                       bits);
    } else {
      EgressBatch& e = egress(slot, d);
      e.payloads.emplace_back(dm.dst, Inbox::Item{sender, std::move(dm.msg)});
      ++e.traffic.messages;
      e.traffic.payload_bits += bits;
    }
  }
  // Control bits broadcast to all current neighbors, split the same way.
  if (!out.is_empty_flag() || !out.are_neighbors_empty_flag()) {
    for (NodeId u : graph.neighbors(sender)) {
      const std::size_t d = part_.shard_of(u);
      if (d == home) {
        if (!out.is_empty_flag()) hr.stage_busy(slot, u, sender);
        if (!out.are_neighbors_empty_flag()) hr.stage_two_hop(slot, u, sender);
      } else {
        EgressBatch& e = egress(slot, d);
        if (!out.is_empty_flag()) e.busy.emplace_back(u, sender);
        if (!out.are_neighbors_empty_flag()) e.two_hop.emplace_back(u, sender);
      }
    }
  }
}

LaneTraffic ShardFabric::merge() {
  LaneTraffic total;
  for (auto& r : routers_) total += r.merge();
  return total;
}

bool ShardFabric::ingress_empty(std::size_t shard, std::size_t slot) const {
  if (shard_of_slot(slot) == shard) {
    const LaneBatchHeader h = routers_[shard].lane_header(slot);
    return h.payload_count == 0 && h.busy_count == 0 && h.two_hop_count == 0;
  }
  return egress(slot, shard).empty();
}

LaneBatchHeader ShardFabric::ingress_header(std::size_t shard,
                                            std::size_t slot) const {
  if (shard_of_slot(slot) == shard) return routers_[shard].lane_header(slot);
  const EgressBatch& e = egress(slot, shard);
  return make_lane_header(static_cast<std::uint16_t>(slot), round_,
                          wire_seq(), routers_[shard].wire_epoch(slot),
                          e.traffic, e.view());
}

void ShardFabric::encode_ingress(std::size_t shard, std::size_t slot,
                                 std::vector<std::uint8_t>& out) const {
  if (shard_of_slot(slot) == shard) {
    routers_[shard].encode_lane(slot, out);
    return;
  }
  const EgressBatch& e = egress(slot, shard);
  encode_lane_batch(static_cast<std::uint16_t>(slot), round_, wire_seq(),
                    routers_[shard].wire_epoch(slot), e.traffic, e.view(),
                    out);
}

void ShardFabric::deliver(std::size_t shard, std::size_t slot,
                          LaneBatch&& batch) {
  routers_[shard].replace_lane(slot, std::move(batch));
}

void ShardFabric::clear_ingress(std::size_t shard, std::size_t slot) {
  if (shard_of_slot(slot) == shard) {
    routers_[shard].clear_lane(slot);
    return;
  }
  egress_[slot * routers_.size() + shard].clear();
}

void ShardFabric::collect_destinations(std::size_t shard, std::size_t slot,
                                       std::vector<NodeId>* out) const {
  if (shard_of_slot(slot) == shard) {
    routers_[shard].collect_lane_destinations(slot, out);
    return;
  }
  const EgressBatch& e = egress(slot, shard);
  for (const auto& [dst, item] : e.payloads) {
    (void)item;
    out->push_back(dst);
  }
  for (const auto& [dst, sender] : e.busy) {
    (void)sender;
    out->push_back(dst);
  }
  for (const auto& [dst, sender] : e.two_hop) {
    (void)sender;
    out->push_back(dst);
  }
}

std::size_t ShardFabric::retained_capacity() const {
  std::size_t cap = 0;
  for (const auto& r : routers_) cap += r.retained_capacity();
  for (const auto& e : egress_) {
    cap += e.payloads.capacity() + e.busy.capacity() + e.two_hop.capacity();
  }
  return cap;
}

}  // namespace dynsub::net
