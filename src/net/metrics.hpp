// Amortized round-complexity metering (paper Section 1.1).
//
// "The amortized round complexity of an algorithm is k if for every i, until
//  round i, the number of rounds in which there exists at least one node v
//  with an inconsistent DS_v, divided by the number of topology changes which
//  occurred, is bounded by k."
//
// The meter tracks exactly that ratio (and its running maximum over i, which
// is the quantity the bound constrains), plus the per-node variant the paper
// notes the results also hold for, plus traffic statistics used by the
// bandwidth-shape benches.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace dynsub::net {

/// Traffic accounting one worker lane accumulates while staging its shard
/// of the round's outboxes.  Lanes write their own instance (no shared
/// state during the parallel phase); the router reduces them at the round
/// barrier in lane order.  uint64 addition is associative, so the reduced
/// totals are bit-identical to the sequential engine's running sums at
/// every lane count.
struct LaneTraffic {
  std::uint64_t messages = 0;
  std::uint64_t payload_bits = 0;

  LaneTraffic& operator+=(const LaneTraffic& o) {
    messages += o.messages;
    payload_bits += o.payload_bits;
    return *this;
  }

  friend bool operator==(const LaneTraffic&, const LaneTraffic&) = default;
};

/// Counters of everything the transport layer (net/transport.hpp) did to
/// the lane batches at the round barriers.  All-zero for the local path
/// and for fault-free chaos runs -- which is exactly what the perf gate
/// asserts on fault-free bench rows.
struct TransportStats {
  std::uint64_t batches = 0;        // lane batches carried end to end
  std::uint64_t wire_bytes = 0;     // encoded bytes shipped (incl. resends)
  std::uint64_t retries = 0;        // NACK-and-resend attempts
  std::uint64_t redeliveries = 0;   // duplicate/stale copies rejected by seq
  std::uint64_t corruptions = 0;    // CRC32C rejects
  std::uint64_t drops = 0;          // batches the fault plan vanished
  std::uint64_t delays = 0;         // copies parked to a later round
  std::uint64_t reorders = 0;       // rounds serviced in permuted lane order
  std::uint64_t backoff_units = 0;  // simulated exponential-backoff waiting
  std::uint64_t lost_batches = 0;   // retries exhausted; lane degraded
  std::uint64_t degraded_marks = 0;   // nodes entering degraded mode
  std::uint64_t recovery_events = 0;  // flicker events injected to recover

  TransportStats& operator+=(const TransportStats& o) {
    batches += o.batches;
    wire_bytes += o.wire_bytes;
    retries += o.retries;
    redeliveries += o.redeliveries;
    corruptions += o.corruptions;
    drops += o.drops;
    delays += o.delays;
    reorders += o.reorders;
    backoff_units += o.backoff_units;
    lost_batches += o.lost_batches;
    degraded_marks += o.degraded_marks;
    recovery_events += o.recovery_events;
    return *this;
  }

  /// Counter-wise difference -- the telemetry layer snapshots the stats
  /// at a round boundary and subtracts to get per-round deltas.  Counters
  /// are monotone, so a well-ordered (later - earlier) never underflows.
  TransportStats& operator-=(const TransportStats& o) {
    batches -= o.batches;
    wire_bytes -= o.wire_bytes;
    retries -= o.retries;
    redeliveries -= o.redeliveries;
    corruptions -= o.corruptions;
    drops -= o.drops;
    delays -= o.delays;
    reorders -= o.reorders;
    backoff_units -= o.backoff_units;
    lost_batches -= o.lost_batches;
    degraded_marks -= o.degraded_marks;
    recovery_events -= o.recovery_events;
    return *this;
  }
  friend TransportStats operator-(TransportStats a, const TransportStats& b) {
    a -= b;
    return a;
  }

  friend bool operator==(const TransportStats&,
                         const TransportStats&) = default;
};

/// Per-shard cross-shard exchange accounting for the partitioned engine:
/// what arrived on one shard's ingress over the wire.  Lives strictly off
/// the byte-equality surfaces (never in RoundRecord, recorded traces, or
/// result comparisons) -- the frame counts depend on the shard geometry by
/// construction.  Exported separately (`dynsub_run --shard-stats`).
struct ShardStats {
  std::uint64_t frames = 0;        // cross-shard frames delivered
  std::uint64_t wire_bytes = 0;    // encoded bytes received (incl. resends)
  std::uint64_t faults = 0;        // fault events injected on this ingress
  std::uint64_t lost_batches = 0;  // ingress frames lost after every retry

  ShardStats& operator+=(const ShardStats& o) {
    frames += o.frames;
    wire_bytes += o.wire_bytes;
    faults += o.faults;
    lost_batches += o.lost_batches;
    return *this;
  }

  friend bool operator==(const ShardStats&, const ShardStats&) = default;
};

/// The fixed key order of one per-shard JSONL record: the shard id, then
/// ShardStats' four counters.  write_shard_jsonl writes exactly these keys
/// and dynsub_stats validates against them.
inline constexpr std::array<const char*, 5> kShardRecordKeys = {
    "shard", "frames", "wire_bytes", "faults", "lost_batches"};

/// One compact JSON object per shard, '\n'-terminated, numbered from 0.
void write_shard_jsonl(std::ostream& out,
                       std::span<const ShardStats> per_shard);

class Metrics {
 public:
  explicit Metrics(std::size_t n)
      : shard_(1), node_inconsistent_(n), node_changes_(n) {}

  /// Per-round accounting.  `inconsistent_nodes` is the number of nodes
  /// whose flag is down at the end of the round -- the simulator maintains
  /// it as an O(1) counter so metering a quiescent round never scans the
  /// consistency vector.
  void record_round(Round round, std::uint64_t changes_this_round,
                    std::uint64_t inconsistent_nodes,
                    std::uint64_t messages_this_round,
                    std::uint64_t bits_this_round);

  void record_node_change(NodeId v) { ++node_changes_[v]; }

  /// Called once per round for each inconsistent node (every inconsistent
  /// node is in the active set, so the sparse engine visits them all).
  /// Parallel contract: a round's stepped set is partitioned across lanes
  /// and each node belongs to exactly one lane, so concurrent calls from
  /// worker lanes always target distinct vector elements -- data-race
  /// free without locks, and order-independent (each slot is a counter).
  void record_node_inconsistent(NodeId v) { ++node_inconsistent_[v]; }

  [[nodiscard]] Round rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t changes() const { return changes_; }
  [[nodiscard]] std::uint64_t inconsistent_rounds() const {
    return inconsistent_rounds_;
  }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::uint64_t payload_bits() const { return payload_bits_; }
  [[nodiscard]] std::uint64_t sum_inconsistent_nodes() const {
    return sum_inconsistent_nodes_;
  }

  /// Current global amortized complexity: inconsistent rounds / changes.
  [[nodiscard]] double amortized() const;

  /// max_i (inconsistent rounds up to i) / (changes up to i) — the running
  /// maximum the definition quantifies over.  Rounds before the first change
  /// are excluded (no change has been charged yet and the paper's structures
  /// start consistent on the empty graph).
  [[nodiscard]] double amortized_sup() const { return amortized_sup_; }

  /// Worst per-node ratio: max_v inconsistent_v / max(1, changes_v).
  [[nodiscard]] double per_node_amortized_sup() const;

  /// Transport-layer counters; the engine's transport accumulates into
  /// transport_mut() at the round barrier (single-threaded by contract).
  [[nodiscard]] const TransportStats& transport() const { return transport_; }
  [[nodiscard]] TransportStats& transport_mut() { return transport_; }

  /// Per-shard ingress accounting (see ShardStats).  The engine sizes the
  /// books once at construction; transports accumulate at the barrier
  /// (single-threaded by contract).
  void set_shards(std::size_t shards) { shard_.resize(shards); }
  [[nodiscard]] const std::vector<ShardStats>& shard_stats() const {
    return shard_;
  }
  [[nodiscard]] ShardStats& shard_mut(std::size_t shard) {
    return shard_[shard];
  }

  [[nodiscard]] const std::vector<std::uint64_t>& node_inconsistent() const {
    return node_inconsistent_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& node_changes() const {
    return node_changes_;
  }

 private:
  Round rounds_ = 0;
  std::uint64_t changes_ = 0;
  std::uint64_t inconsistent_rounds_ = 0;
  std::uint64_t sum_inconsistent_nodes_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t payload_bits_ = 0;
  double amortized_sup_ = 0.0;
  TransportStats transport_;
  std::vector<ShardStats> shard_;
  std::vector<std::uint64_t> node_inconsistent_;
  std::vector<std::uint64_t> node_changes_;
};

}  // namespace dynsub::net
