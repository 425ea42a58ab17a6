// The sharded routing fabric: pooled per-destination buffers, lane-local
// staging batches, and the first-class Router layer the round engine's
// message path runs on.
//
// Two layers, bottom up:
//
//   * ShardedBuckets<T> -- the engine's one (destination -> items)
//     multimap: the Phase 0 event fan-out is a one-lane instance, the
//     Router's payload / busy / two-hop buffers have one lane per staging
//     slot.  Each lane appends to its own staging vector with no shared
//     state (stage() is data-race free across lanes by construction), and
//     merge() runs a stable counting sort over all lanes in *lane-major
//     order* at the round barrier.  Because the engine hands lanes
//     contiguous ascending shards of the active set, lane-major order IS
//     ascending sender order, so per-destination ranges come out
//     sender-sorted exactly as a single lane produces them -- the
//     bit-identical guarantee the ParallelEquivalence suite locks holds at
//     every lane count.
//
//   * Router -- the routing layer itself.  Lanes validate and stage their
//     shard's outbox traffic (payloads, bandwidth bits, duplicate-
//     destination checks, IsEmpty/AreNeighborsEmpty control-bit broadcasts)
//     during Phase 1 via stage_outbox(); merge() at the barrier produces
//     the per-destination inboxes plus the round's traffic totals reduced
//     from per-lane counters.  Each lane batch also has a sized,
//     serializable wire form (LaneBatchHeader + encode_lane/decode_lane),
//     so the same path can later carry cross-process shard traffic.
//
// Per destination a bucket stores one 4-byte slot index into the round's
// touched list; item counts and offsets live per touched slot.  A slot is
// believed only when it points back at its destination (sparse-set style:
// slot < touched.size() && touched[slot] == dst).  The touched list is
// cleared every round, so a slot left over from any earlier round either
// points past the list or at another destination and reads empty -- no
// per-destination state is ever reset, and there is no epoch counter that
// could wrap.
//
// All buffers persist across rounds (capacity is retained), and a decay
// policy periodically returns capacity after a traffic burst so one heavy
// round (e.g. a dense bootstrap at large n) does not pin its high-water
// memory forever.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "net/metrics.hpp"
#include "net/node.hpp"

namespace dynsub::oracle {
class TimestampedGraph;
}  // namespace dynsub::oracle

namespace dynsub::net {

/// Largest staged-item count the 32-bit bucket index space (slot, count
/// and offset entries) can address.  Staging more in one round would
/// silently wrap the counters and corrupt every bucket; merge() aborts
/// loudly instead.
inline constexpr std::size_t kMaxBucketItems =
    std::numeric_limits<std::uint32_t>::max();

/// Per-destination buckets filled by one or more staging lanes and merged
/// at the barrier with one deterministic lane-major counting sort.  See the
/// header comment for the ordering guarantee and the slot index.
template <typename T>
class ShardedBuckets {
 public:
  /// Rounds between capacity-decay sweeps, and the headroom factor kept
  /// above the rolling peak.  One burst round (dense bootstrap, flash
  /// crowd) grows the staging buffers to its size; without decay that
  /// high-water capacity is pinned forever.  Every kDecayWindow rounds the
  /// buffers are shrunk to 2x the window's peak usage (never below
  /// kDecayFloor entries), so steady-state rounds stay allocation-free
  /// while burst memory is returned within two windows.
  static constexpr std::size_t kDecayWindow = 64;
  static constexpr std::size_t kDecayFloor = 256;

  ShardedBuckets(std::size_t n, std::size_t lanes)
      : ShardedBuckets(0, n, lanes) {}

  /// Variant owning only the destination range [base, base + count): the
  /// slot index is sized `count` and addressed by dst - base, so S
  /// per-shard instances over disjoint ranges cost the same index memory
  /// as one global instance.  touched() still reports global ids.
  ShardedBuckets(NodeId base, std::size_t count, std::size_t lanes)
      : base_(base), slot_(count, 0), staged_(lanes) {
    DYNSUB_CHECK(lanes >= 1);
  }

  [[nodiscard]] std::size_t lanes() const { return staged_.size(); }

  /// Starts a new round: O(lanes) clears, after which every bucket reads
  /// empty; runs the capacity-decay sweep when its window elapsed.
  void begin_round() {
    window_peak_ = std::max(window_peak_, last_total_);
    last_total_ = 0;
    for (auto& lane : staged_) lane.clear();
    touched_.clear();
    count_.clear();
    if (++rounds_since_decay_ >= kDecayWindow) {
      decay();
      rounds_since_decay_ = 0;
      window_peak_ = 0;
    }
  }

  /// Stages one item for `dst` on `lane`.  Touches only lane-private
  /// state: concurrent stage() calls on distinct lanes never race.
  void stage(std::size_t lane, NodeId dst, T item) {
    DYNSUB_DCHECK(lane < staged_.size());
    DYNSUB_DCHECK(dst >= base_ && dst - base_ < slot_.size());
    staged_[lane].emplace_back(dst, std::move(item));
  }

  /// Barrier-side merge: one stable counting sort over every lane's staged
  /// items, walked in lane-major order (lane 0's items first, in staging
  /// order, then lane 1's, ...).  Items are moved into place by sequential
  /// push_backs in sorted order, so T needs no default constructor.  Not
  /// safe concurrently with stage().
  void merge() {
    std::size_t total = 0;
    for (const auto& lane : staged_) total += lane.size();
    DYNSUB_CHECK_MSG(total <= kMaxBucketItems,
                     "ShardedBuckets: " << total
                                        << " staged items overflow the "
                                           "32-bit bucket index space");
    last_total_ = total;
    for (const auto& lane : staged_) {
      for (const auto& entry : lane) ++count_[touch(entry.first)];
    }
    offset_.resize(touched_.size());
    cursor_.resize(touched_.size());
    std::uint32_t running = 0;
    for (std::size_t s = 0; s < touched_.size(); ++s) {
      offset_[s] = running;
      cursor_[s] = running;
      running += count_[s];
    }
    order_.resize(total);
    for (auto& lane : staged_) {
      for (auto& entry : lane) {
        order_[cursor_[slot_[entry.first - base_]]++] = &entry;
      }
    }
    items_.clear();
    for (auto* entry : order_) items_.push_back(std::move(entry->second));
  }

  /// Items merged for `dst` this round (empty span when none); valid after
  /// merge().
  [[nodiscard]] std::span<const T> bucket(NodeId dst) const {
    if (dst < base_ || dst - base_ >= slot_.size()) return {};
    const std::uint32_t s = slot_[dst - base_];
    if (!live(s, dst)) return {};
    return {items_.data() + offset_[s], count_[s]};
  }

  /// Destinations that received at least one item this round, in first-
  /// touch lane-major order (not sorted); valid after merge().
  [[nodiscard]] const std::vector<NodeId>& touched() const { return touched_; }

  /// Items merged this round; valid after merge().
  [[nodiscard]] std::size_t total() const { return last_total_; }

  /// Lane `lane`'s staged items in staging order (for wire encoding);
  /// valid between the last stage() and merge(), which moves items out.
  [[nodiscard]] std::span<const std::pair<NodeId, T>> lane_staged(
      std::size_t lane) const {
    DYNSUB_DCHECK(lane < staged_.size());
    return staged_[lane];
  }

  /// Mutable access to lane `lane`'s staged buffer, for the transport
  /// layer's replace/clear of a lane between staging and merge() (never
  /// call concurrently with stage()).
  [[nodiscard]] std::vector<std::pair<NodeId, T>>& lane_mut(
      std::size_t lane) {
    DYNSUB_DCHECK(lane < staged_.size());
    return staged_[lane];
  }

  /// Total entry capacity currently retained by the per-round buffers --
  /// staging lanes, merged items, the merge order and the per-slot arrays;
  /// the quantity the decay policy bounds (regression-tested).
  [[nodiscard]] std::size_t retained_capacity() const {
    std::size_t cap = items_.capacity() + order_.capacity() +
                      touched_.capacity() + count_.capacity() +
                      offset_.capacity() + cursor_.capacity();
    for (const auto& lane : staged_) cap += lane.capacity();
    return cap;
  }

 private:
  /// True when `slot` is this round's slot of `dst` (the sparse-set test).
  [[nodiscard]] bool live(std::uint32_t slot, NodeId dst) const {
    return slot < touched_.size() && touched_[slot] == dst;
  }

  /// This round's slot of `dst`, claiming the next free one on first touch.
  std::uint32_t touch(NodeId dst) {
    std::uint32_t& slot = slot_[dst - base_];
    if (!live(slot, dst)) {
      slot = static_cast<std::uint32_t>(touched_.size());
      touched_.push_back(dst);
      count_.push_back(0);
    }
    return slot;
  }

  void decay() {
    const std::size_t keep = std::max(window_peak_ * 2, kDecayFloor);
    for (auto& lane : staged_) shrink(lane, keep);
    shrink(items_, keep);
    shrink(order_, keep);
    shrink(touched_, keep);
    shrink(count_, keep);
    shrink(offset_, keep);
    shrink(cursor_, keep);
  }

  /// Swaps a fresh buffer with capacity `keep` into `v` when `v` retains
  /// more (instead of shrink_to_fit's zero).  Only called from
  /// begin_round(), when no buffer holds anything still readable.
  template <typename V>
  static void shrink(V& v, std::size_t keep) {
    if (v.capacity() > keep) {
      V shrunk;
      shrunk.reserve(keep);
      v.swap(shrunk);
    }
  }

  NodeId base_ = 0;                    // first owned destination id
  std::vector<std::uint32_t> slot_;    // per owned destination; see live()
  std::vector<NodeId> touched_;        // per slot: its destination (global)
  std::vector<std::uint32_t> count_;   // per slot: items this round
  std::vector<std::uint32_t> offset_;  // per slot: range start in items_
  std::vector<std::uint32_t> cursor_;  // per slot: merge() write position
  std::vector<std::vector<std::pair<NodeId, T>>> staged_;  // per lane
  std::vector<std::pair<NodeId, T>*> order_;  // merge(): staged, sorted
  std::vector<T> items_;
  std::size_t last_total_ = 0;
  std::size_t window_peak_ = 0;
  std::uint32_t rounds_since_decay_ = 0;
};

/// Sized wire header of one lane's staged routing batch (format v2).
/// Every count and byte length a reader needs to skip or slice the batch
/// is in the fixed-size header, so the same framing works for in-process
/// tests today and cross-process shard exchange later.  All fields are
/// serialized little-endian by Router::encode_lane.
///
/// v2 hardens the frame against an imperfect transport (net/transport.hpp):
///   * seq   -- monotone per-lane sequence number, bumped at begin_round();
///              a resend of the same round's batch carries the same seq, so
///              a receiver rejects duplicates and stale delayed copies.
///   * epoch -- stream-incarnation stamp.  Bumped when a lane's delivery
///              was declared lost (retries exhausted): copies of batches
///              from before the loss can never be mistaken for fresh
///              traffic even across a seq reset.
///   * crc   -- CRC32C over the entire encoded batch with this field
///              zeroed; decode_lane verifies it before trusting any count,
///              so a corrupted buffer is rejected, never half-parsed.
struct LaneBatchHeader {
  static constexpr std::uint32_t kMagic = 0x424c5344u;  // "DSLB"
  static constexpr std::uint16_t kVersion = 2;
  static constexpr std::size_t kWireBytes = 80;
  /// Byte offset of the crc field (the last 4 header bytes).
  static constexpr std::size_t kCrcOffset = kWireBytes - 4;

  std::uint32_t magic = kMagic;
  std::uint16_t version = kVersion;
  std::uint16_t lane = 0;
  std::int64_t round = 0;
  std::uint64_t payload_count = 0;
  std::uint64_t busy_count = 0;
  std::uint64_t two_hop_count = 0;
  /// Byte length of the variable-size payload section that follows the
  /// header (the busy / two-hop sections are fixed 8 bytes per entry).
  std::uint64_t payload_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bits = 0;
  std::uint64_t seq = 0;
  std::uint32_t epoch = 1;
  std::uint32_t crc = 0;

  /// Total encoded size of the batch this header describes.
  [[nodiscard]] std::uint64_t wire_size() const {
    return kWireBytes + payload_bytes + 8 * (busy_count + two_hop_count);
  }

  friend bool operator==(const LaneBatchHeader&,
                         const LaneBatchHeader&) = default;
};

/// Streaming CRC32C (Castagnoli): pass the previous return value as `crc`
/// to extend a running checksum (start from 0).  Table-driven software
/// implementation -- no hardware or library dependency.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                                   std::uint32_t crc = 0);

/// A decoded lane batch: the header plus the staged traffic, exactly as
/// the staging lane ordered it.
struct LaneBatch {
  LaneBatchHeader header;
  std::vector<std::pair<NodeId, Inbox::Item>> payloads;  // (dst, {from, msg})
  std::vector<std::pair<NodeId, NodeId>> busy;           // (dst, sender)
  std::vector<std::pair<NodeId, NodeId>> two_hop;        // (dst, sender)
};

/// Borrowed view of one lane batch's staged sections, in staging order --
/// what the free-standing encoder below serializes.  The shard fabric's
/// egress books encode through this without owning a Router lane.
struct LaneBatchView {
  std::span<const std::pair<NodeId, Inbox::Item>> payloads;
  std::span<const std::pair<NodeId, NodeId>> busy;
  std::span<const std::pair<NodeId, NodeId>> two_hop;
};

/// Computes the v2 header `view` would serialize under with the given
/// stream stamps and traffic counters (crc left zero; encode stamps it).
[[nodiscard]] LaneBatchHeader make_lane_header(std::uint16_t lane, Round round,
                                               std::uint64_t seq,
                                               std::uint32_t epoch,
                                               LaneTraffic traffic,
                                               const LaneBatchView& view);

/// Appends one v2 lane-batch frame -- header + payload/busy/two-hop
/// sections, CRC32C stamped -- to `out`.  Router::encode_lane and the
/// shard fabric's cross-shard egress frames both serialize through here,
/// so a frame's bytes do not depend on which side produced it.
void encode_lane_batch(std::uint16_t lane, Round round, std::uint64_t seq,
                       std::uint32_t epoch, LaneTraffic traffic,
                       const LaneBatchView& view,
                       std::vector<std::uint8_t>& out);

/// Sizes the first frame of a byte stream: returns its wire_size() if
/// `bytes` starts with a plausible v2 header prefix (magic, version, and
/// in-range section sizes), or 0 when even the prefix is malformed or too
/// short.  Full validation stays decode_lane's job -- this only lets a
/// stream reader slice frame boundaries.
[[nodiscard]] std::uint64_t peek_frame_size(std::span<const std::uint8_t> bytes);

/// The routing layer of the round engine.  Lanes stage their shard of the
/// active set's traffic concurrently during Phase 1 (stage_outbox), the
/// barrier merges deterministically (merge), the receive half reads the
/// per-destination inboxes (inbox / *_touched).  See the header comment.
class Router {
 public:
  Router(std::size_t n, std::size_t lanes);

  /// Shard-scoped variant: this router owns only destinations in
  /// [base, base + count) (its bucket index arrays are sized `count`), but
  /// validates against the global `n` and its bandwidth budget.  The
  /// constructor above is the base == 0, count == n case.
  Router(std::size_t n, std::size_t lanes, NodeId base, std::size_t count);

  [[nodiscard]] std::size_t lanes() const { return lane_traffic_.size(); }

  /// Starts a new round; `round` is stamped into check messages and lane
  /// batch headers.
  void begin_round(Round round);

  /// Validates and stages one sender's outbox on `lane`: destination and
  /// current-edge checks, the per-link bandwidth budget, the duplicate-
  /// destination rule, and the control-bit broadcast to `graph` neighbors.
  /// Payloads are moved out of the outbox.  Touches only lane-local router
  /// state and the read-only graph -- safe to call concurrently on
  /// distinct lanes while the graph is quiescent (Phase 1).  A sender's
  /// traffic must be staged by exactly one lane (the engine's contiguous
  /// shards guarantee it), which is what makes the duplicate-destination
  /// check lane-local yet complete.
  void stage_outbox(std::size_t lane, NodeId sender, Outbox& out,
                    const oracle::TimestampedGraph& graph);

  /// Runs stage_outbox's validation half only -- bad-id / absent-link /
  /// bandwidth-budget / duplicate-destination checks -- without staging
  /// anything.  `dst_scratch` is the caller's duplicate-check buffer (one
  /// per concurrent caller).  The shard fabric validates each sender once
  /// here, then splits the outbox across per-shard raw staging calls.
  void validate_outbox(NodeId sender, const Outbox& out,
                       const oracle::TimestampedGraph& graph,
                       std::vector<NodeId>& dst_scratch) const;

  /// Raw staging entry points for pre-validated traffic (the shard
  /// fabric's split path).  stage_payload charges `bits` and one message
  /// against the lane's traffic counters; the control-bit stages charge
  /// nothing, matching stage_outbox's accounting.  Same concurrency
  /// contract as stage_outbox: lane-local state only.
  void stage_payload(std::size_t lane, NodeId dst, Inbox::Item item,
                     std::uint64_t bits);
  void stage_busy(std::size_t lane, NodeId dst, NodeId sender);
  void stage_two_hop(std::size_t lane, NodeId dst, NodeId sender);

  /// Barrier-side deterministic merge of every lane batch (lane-major:
  /// senders ascend within a lane, lanes ascend by shard, so
  /// per-destination ranges stay sender-sorted when lanes hold contiguous
  /// ascending sender shards).  Returns the round's traffic totals reduced
  /// from the per-lane counters.
  LaneTraffic merge();

  /// The merged inbox of `v` (valid after merge(), until the next
  /// begin_round()).
  [[nodiscard]] Inbox inbox(NodeId v) const {
    Inbox in;
    in.payloads = payloads_.bucket(v);
    in.busy_neighbors = busy_.bucket(v);
    in.busy_two_hop = two_hop_.bucket(v);
    return in;
  }

  /// Destinations receiving payloads / control bits this round (valid
  /// after merge(); first-touch order, not sorted).
  [[nodiscard]] const std::vector<NodeId>& payload_touched() const {
    return payloads_.touched();
  }
  [[nodiscard]] const std::vector<NodeId>& busy_touched() const {
    return busy_.touched();
  }
  [[nodiscard]] const std::vector<NodeId>& two_hop_touched() const {
    return two_hop_.touched();
  }

  /// The header lane `lane`'s batch would serialize under right now
  /// (valid between staging and merge()).
  [[nodiscard]] LaneBatchHeader lane_header(std::size_t lane) const;

  /// Appends lane `lane`'s batch -- header + payload/busy/two-hop
  /// sections -- to `out` in the v2 wire format, CRC32C stamped (call
  /// between staging and merge(); merge() moves the staged payloads out).
  void encode_lane(std::size_t lane, std::vector<std::uint8_t>& out) const;

  /// Decodes one v2 lane batch.  Returns false (with `*error` set when
  /// non-null) on a bad magic/version, a buffer whose length is not
  /// exactly the header's wire_size() (truncated or trailing garbage), a
  /// CRC32C mismatch, or section counts that do not match the header.
  /// Every reject is clean: no over-read, no partial trust in a corrupt
  /// count before the checksum has vouched for it.
  [[nodiscard]] static bool decode_lane(std::span<const std::uint8_t> bytes,
                                        LaneBatch* batch,
                                        std::string* error = nullptr);

  /// Replaces lane `lane`'s staged batch with a decoded one -- the receive
  /// half of the cross-process seam (and of the chaos transport's
  /// encode -> perturb -> decode loop).  The batch's traffic counters are
  /// restored from its header, so a delivered batch merges exactly as the
  /// locally staged original would have.  Call between staging and
  /// merge().
  void replace_lane(std::size_t lane, LaneBatch&& batch);

  /// Drops lane `lane`'s staged batch entirely (payloads, control bits,
  /// traffic counters) -- what an exhausted retry protocol does before
  /// degrading the destinations.  Call between staging and merge().
  void clear_lane(std::size_t lane);

  /// Appends every destination lane `lane`'s staged batch would deliver to
  /// (payloads, busy bits, two-hop bits; duplicates included) -- the set a
  /// transport must degrade when the batch is lost for good.  Call between
  /// staging and merge().
  void collect_lane_destinations(std::size_t lane,
                                 std::vector<NodeId>* out) const;

  /// The monotone sequence number stamped into this round's lane headers
  /// (bumped by begin_round()).
  [[nodiscard]] std::uint64_t wire_seq() const { return seq_; }

  /// Per-lane stream-incarnation stamp for lane batch headers.  A
  /// transport bumps it after declaring a lane's delivery lost, so
  /// in-flight copies from the dead period can never pass for fresh.
  [[nodiscard]] std::uint32_t wire_epoch(std::size_t lane) const {
    DYNSUB_DCHECK(lane < lane_epoch_.size());
    return lane_epoch_[lane];
  }
  void set_wire_epoch(std::size_t lane, std::uint32_t epoch) {
    DYNSUB_DCHECK(lane < lane_epoch_.size());
    lane_epoch_[lane] = epoch;
  }

  /// Total entry capacity retained across all routing buffers (the decay
  /// policy's regression surface).
  [[nodiscard]] std::size_t retained_capacity() const {
    return payloads_.retained_capacity() + busy_.retained_capacity() +
           two_hop_.retained_capacity();
  }

 private:
  std::size_t n_;
  std::size_t budget_bits_;
  Round round_ = 0;
  std::uint64_t seq_ = 0;  // monotone wire sequence, bumped per round
  ShardedBuckets<Inbox::Item> payloads_;
  ShardedBuckets<NodeId> busy_;
  ShardedBuckets<NodeId> two_hop_;
  std::vector<LaneTraffic> lane_traffic_;           // reduced by merge()
  std::vector<std::uint32_t> lane_epoch_;           // wire stream epochs
  std::vector<std::vector<NodeId>> lane_dst_scratch_;  // duplicate check
};

}  // namespace dynsub::net
