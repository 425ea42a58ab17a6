// The round engine: a faithful executable version of the paper's model.
//
// The network starts as an empty graph on n nodes and evolves into
// G_i = (V, E_i) at the beginning of round i.  One step() call executes one
// full round:
//
//   1. validate + apply the workload's topology events (true timestamps are
//      stamped here and visible only to the oracle / audits),
//   2. notify every affected node of exactly its incident events and run
//      react_and_send for every *active* node,
//   3. route messages -- asserting the O(log n) per-link budget, at most one
//      payload per directed link, and delivery only over edges of G_i --
//   4. run receive_and_update for active nodes and receivers, meter
//      consistency.
//
// Active set (the sparse engine): a node can act in round i only if it has
// incident topology events, reported wants_to_act() after the last round it
// ran (non-empty pending queue, still converging), or traffic arrived on
// one of its links.  The engine tracks exactly that set with epoch-stamped
// membership, so a round costs O(|active| + |messages|) instead of the seed
// engine's Theta(n) -- a quiescent round (no events, all queues drained) is
// O(1).  Round 1 steps every node once (bootstrap), giving programs with
// spontaneous initial work one chance to declare themselves; afterwards the
// wants_to_act() contract (see node.hpp) carries the set forward, and the
// bootstrap's n-sized sets are handed back when round 2 starts.  Setting
// SimulatorConfig::sparse_rounds = false restores the seed engine's dense
// semantics (every node stepped every round); the golden-trace equivalence
// suite drives both engines in lockstep and asserts identical results.
//
// Routing runs on the sharded fabric (net/router.hpp): each lane stages
// its shard's validated outbox traffic -- payloads, bandwidth bits,
// duplicate-destination checks, control-bit broadcasts -- into lane-local
// batches *during Phase 1*, immediately after each node's react_and_send
// (one scratch Outbox per lane, not one per node).  Inboxes are spans into
// per-destination buffers produced by the Router's deterministic lane-major
// merge at the round barrier, and WireMessage payloads are inline
// (SmallBlob) -- steady-state rounds perform no heap allocation.
//
// The slot grid: Phase 1 and Phase 3 always run as S x L staging slots
// (S = shards, L = lanes).  Slot p = s * L + l covers chunk l of shard s's
// slice of the ascending node set, so slots in ascending order cover the
// set in ascending id order.  A node's react/receive touches only its own
// program state, its (read-only) event/inbox buckets, its lane's scratch
// outbox, and its slot's router batch and accounting book, so slots never
// share mutable state.  The sequential engine (threads 0 or 1) is the
// grid's S x 1 case walked on the calling thread; with threads >= 2 a
// persistent WorkerPool (net/worker_pool.hpp) splits the grid's slots
// across its lanes whenever the set exceeds threads_inline_cutoff, and
// otherwise lane 0 walks the same slots inline.  Determinism comes from
// structure rather than sequencing: the Router's lane-major merge (senders
// ascend within a slot, slots ascend by id range) reproduces exactly the
// ascending-sender staging order of one slot, and the per-slot
// consistency/metrics/carry books are reduced at the round barrier in slot
// order, which is likewise ascending id order.  Every result, metric,
// audit, and recorded trace is therefore bit-identical to the sequential
// engine for any thread count -- locked by the ParallelEquivalence suite
// at threads in {1, 2, 4, 8}.
//
// Transport seam (SimulatorConfig::faults): between Phase 1 staging and
// the Phase 2 merge, the staged lane batches cross a Transport
// (net/transport.hpp).  The default LocalTransport is a no-op; a FaultPlan
// swaps in the ChaosTransport, which drives every batch through the v2
// wire format under seeded deterministic faults with NACK-and-resend
// retries.  When retries exhaust, the batch is honestly *lost*: every
// destination it would have reached is marked degraded -- reported
// inconsistent exactly like a node mid-churn -- and the engine recovers by
// scheduling real flicker events (delete, then reinsert, of the degraded
// nodes' incident edges) into the next clean rounds' Phase 0, ahead of the
// workload batch.  That reduces fault recovery to adversarial churn, which
// the paper's algorithms provably handle; audits stay sound throughout
// because degraded nodes are excluded the same way inconsistent ones are.
//
// The paper's 3-hop and cycle-listing guarantees are stated against the
// previous round's graph G_{i-1}, which only the oracle audits read.  The
// engine keeps just G_i and the last batch's deletes with their insertion
// timestamps (O(k) for a k-event batch); prev_graph() rebuilds G_{i-1}
// from the two when asked, so it works in every configuration.
//
// Node programs: the factory builds one NodeStore (net/node.hpp) holding
// all n programs.  TypedNodeStore<T> keeps them in one std::vector<T>, so
// construction makes O(1) allocations and a program must be movable; a
// program may create its heap state on first use, so an idle node costs
// only its object.  The engine reaches program v through one virtual
// NodeStore::at(v) per node step and keeps no per-node pointer beside the
// store.
//
// Determinism: active nodes execute in id order and see inboxes sorted by
// sender.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/edge.hpp"
#include "common/types.hpp"
#include "net/faults.hpp"
#include "net/metrics.hpp"
#include "net/node.hpp"
#include "net/router.hpp"
#include "net/shard_fabric.hpp"
#include "net/transport.hpp"
#include "net/worker_pool.hpp"
#include "oracle/timestamped_graph.hpp"

namespace dynsub::telemetry {
class TelemetrySink;
enum class Phase : std::uint8_t;
}  // namespace dynsub::telemetry

namespace dynsub::net {

struct SimulatorConfig {
  /// Ignored: prev_graph() rebuilds G_{i-1} on demand, so there is no
  /// second graph to switch off.  Kept only because the benchmark program
  /// (perfbench/) still sets it; the field goes once that program stops.
  bool track_prev_graph = true;
  /// Sparse active-set rounds (see the header comment).  false = the seed
  /// engine's dense semantics: every node stepped every round.  Kept as
  /// the reference mode for the golden-trace equivalence suite.
  bool sparse_rounds = true;
  /// Accumulate per-phase wall-clock timings into phase_timings().  This
  /// flag and an attached timing-enabled telemetry sink share one gate:
  /// when both are off the hot path performs NO clock reads at all (a
  /// telemetry-off round is byte-for-byte the pre-telemetry engine).
  bool collect_phase_timings = false;
  /// Execution lanes L for the round engine.  0 or 1 = the sequential
  /// engine (one lane on the calling thread, no thread started; the
  /// reference).  T >= 2 splits the slot grid of Phase 1 and Phase 3
  /// across T lanes (the calling thread plus T - 1 persistent pool
  /// threads); results are bit-identical to sequential for every T.
  std::size_t threads = 0;
  /// Node sets at or below this size skip the fork-join and run the slot
  /// grid inline on the calling thread: a condvar fork-join costs
  /// microseconds, a few dozen node steps cost nanoseconds each.  Results
  /// are identical either way (the grid fixes the slots; the pool only
  /// picks which thread runs each), so the equivalence/tsan suites set 0
  /// to race every dispatch.
  std::size_t threads_inline_cutoff = 32;
  /// Shard count S for the partitioned engine (net/shard_fabric.hpp).
  /// 0 or 1 = the single-router engine (the reference).  S >= 2 splits the
  /// node-id space into S contiguous partitions, each with its own Router
  /// and per-shard metrics books; cross-shard traffic crosses the
  /// Transport seam as encoded wire-v2 frames at the round barrier.
  /// Results, metrics, audits, and recorded traces are bit-identical to
  /// S = 1 for every S (ShardEquivalence suite).  Composes with threads:
  /// each shard's work splits across the worker lanes.
  std::size_t shards = 1;
  /// Fault plan for the transport seam.  Disabled (the default) keeps the
  /// zero-overhead LocalTransport; an enabled plan routes every lane batch
  /// through the fault-injecting ChaosTransport (see the header comment).
  FaultPlan faults{};
  /// Telemetry sink (telemetry/sink.hpp); not owned, must outlive the
  /// simulator.  nullptr (the default) keeps the hot path free of any
  /// telemetry work.  Non-null: the deterministic channel (one
  /// RoundRecord per step) always flows; the timing channel (per-lane
  /// phase spans, barrier waits, wire-byte sizes) only when the sink
  /// reports timing_enabled() -- sampled once at construction.
  telemetry::TelemetrySink* telemetry = nullptr;
};

struct RoundResult {
  Round round = 0;
  std::size_t changes = 0;
  std::size_t inconsistent_nodes = 0;
  std::size_t messages = 0;

  friend bool operator==(const RoundResult&, const RoundResult&) = default;
};

/// Cumulative per-phase wall-clock nanoseconds (collect_phase_timings).
struct PhaseTimings {
  std::uint64_t apply_ns = 0;    // Phase 0: event validation + graph apply
  std::uint64_t react_ns = 0;    // Phase 1: react_and_send over the active set
  std::uint64_t route_ns = 0;    // Phase 2: routing + bandwidth enforcement
  std::uint64_t receive_ns = 0;  // Phase 3: receive_and_update + metering

  [[nodiscard]] std::uint64_t total_ns() const {
    return apply_ns + react_ns + route_ns + receive_ns;
  }
};

class Simulator {
 public:
  Simulator(std::size_t n, NodeFactory factory, SimulatorConfig config = {});

  // Not movable: the persistent slot tasks capture `this` (heap-allocate a
  // Simulator to hand it around, as Session does).
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = delete;
  Simulator& operator=(Simulator&&) = delete;

  /// Executes one round with the given topology events.  Events must be
  /// applicable as a batch (each edge at most once per round; inserts of
  /// absent, deletes of present edges) -- a workload handing the simulator
  /// an inapplicable batch is a bug and aborts.
  RoundResult step(std::span<const EdgeEvent> events);

  /// Convenience: runs rounds with no topology changes until every node is
  /// consistent (or `max_rounds` pass); returns the number of rounds run.
  /// This is the adversaries' "wait for the algorithm to stabilize".
  /// all_consistent() is an O(1) counter check, and each drain round costs
  /// O(active), so draining an already-stable network is free.
  std::size_t run_until_stable(std::size_t max_rounds);

  [[nodiscard]] std::size_t node_count() const { return store_->size(); }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] const SimulatorConfig& config() const { return config_; }

  /// Test hook: primes the active-set dedup epoch to within `steps`
  /// increments of the std::uint32_t wrap, so a short run crosses it.
  /// Locks the wrap-reset path with a regression test; harmless to call at
  /// any round boundary.  (The event and routing buckets validate their
  /// slot indices without an epoch; see net/router.hpp.)
  void debug_prime_epoch_wrap(std::uint32_t steps = 4);

  /// G_i: the graph after the last step's changes.
  [[nodiscard]] const oracle::TimestampedGraph& graph() const { return g_; }
  /// G_{i-1}, rebuilt on each call: a copy of graph() without the last
  /// step's inserts (exactly the edges stamped round()) and with its
  /// deletes restored at their insertion timestamps, recovery flickers
  /// included.  Costs the O(n + E) copy plus one apply per event of that
  /// step; the round path never calls it.  The empty graph before the
  /// first step.
  [[nodiscard]] oracle::TimestampedGraph prev_graph() const;

  [[nodiscard]] NodeProgram& node(NodeId v) { return store_->at(v); }
  [[nodiscard]] const NodeProgram& node(NodeId v) const {
    return store_->at(v);
  }
  /// Every node program, in the one store the factory built (audits and
  /// detector queries read their concrete type through NodeStore::as).
  [[nodiscard]] const NodeStore& store() const { return *store_; }

  /// Per-node consistency flags at the end of the last round.
  [[nodiscard]] const std::vector<bool>& consistency() const {
    return consistent_;
  }
  /// Degraded flags: nodes whose inbound lane batch was lost after every
  /// retry and whose recovery flicker has not yet completed.  A degraded
  /// node always reads inconsistent in consistency() -- its local state
  /// may silently disagree with the network, so claiming otherwise would
  /// be unsound.
  [[nodiscard]] const std::vector<bool>& degraded() const {
    return degraded_;
  }
  [[nodiscard]] std::size_t degraded_count() const {
    return degraded_nodes_.size();
  }
  /// True when the last step's transport exchange lost at least one lane
  /// batch (retries exhausted).
  [[nodiscard]] bool last_round_had_loss() const { return round_had_loss_; }
  [[nodiscard]] bool all_consistent() const {
    return inconsistent_count_ == 0;
  }

  /// Nodes stepped in the send half of the last round (the active set).
  /// 0 for a quiescent round -- the O(1) witness the perf suite asserts.
  [[nodiscard]] std::size_t last_round_active() const {
    return active_.size();
  }
  /// Nodes stepped in the receive half (active set plus pure receivers).
  [[nodiscard]] std::size_t last_round_stepped() const {
    return active_.size() + receive_extra_.size();
  }

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] const PhaseTimings& phase_timings() const { return timings_; }

  /// Shard 0's Router (for tests / memory instrumentation; the whole
  /// fabric at S = 1).
  [[nodiscard]] const Router& router() const { return fabric_.router(0); }

  /// Outbox scratch slots currently held -- one per execution lane, never
  /// one per node (the regression surface for the old pool's dense-
  /// bootstrap high-water retention).
  [[nodiscard]] std::size_t outbox_pool_slots() const {
    return lane_outbox_.size();
  }

  /// Total entry capacity retained by the engine's per-round node-id sets
  /// (active set, pure receivers, their merge, the carry set and the
  /// per-slot books): O(active) once round 1's dense bootstrap is past
  /// (regression-tested).
  [[nodiscard]] std::size_t retained_capacity() const;

 private:
  /// Per-slot Phase 3 accounting book: everything order-sensitive a slot
  /// observes while receiving its chunk, reduced at the round barrier in
  /// slot order (= ascending id order, since chunks are contiguous and
  /// ascending).
  struct LaneBook {
    std::vector<std::pair<NodeId, bool>> flips;  // consistency transitions
    std::vector<NodeId> carry;  // wants_to_act() carryover
  };

  void mark_active(NodeId v);
  void bump_active_epoch();
  // Transport / degraded-mode machinery (all barrier-side, sequential).
  // reconcile_and_recover screens the workload batch against the recovery
  // pipeline and prepends this round's flicker events; apply_loss marks a
  // lost batch's destinations degraded and enqueues their incident edges
  // for flicker; maybe_undegrade clears flags whose recovery has flushed.
  std::span<const EdgeEvent> reconcile_and_recover(
      std::span<const EdgeEvent> events);
  void apply_loss();
  void maybe_undegrade();
  void add_pending_delete(Edge e);
  static bool erase_sorted(std::vector<Edge>& edges, Edge e);
  // The slot grid (see the header comment).  run_grid is the one dispatch
  // of Phase 1 and Phase 3: it runs `task` over every slot, on the pool
  // when there is one and the phase's node set exceeds the inline cutoff,
  // otherwise inline as lane 0.  A slot indexes the fabric staging batch
  // and the Phase 3 book; `out` is the running lane's scratch outbox.
  void run_grid(std::size_t set_size, const WorkerPool::TaskFn& task);
  void react_slot(std::size_t slot, Outbox& out);
  void receive_slot(std::size_t slot);
  // Slot p's range [first, second) in the ascending id vector whose shard
  // boundaries are `bounds`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> slot_range(
      const std::vector<std::size_t>& bounds, std::size_t slot) const;
  // Fills `bounds` (size S + 1) with the partition boundaries of the
  // ascending id vector `ids`: shard s owns ids[bounds[s]..bounds[s+1]).
  void compute_shard_bounds(const std::vector<NodeId>& ids,
                            std::vector<std::size_t>& bounds) const;
  // Timing-channel helper: emits one Span covering [from, to] to the
  // telemetry sink.  Only called when telemetry_timing_ (so the compiler
  // keeps every clock read off the telemetry-off path).
  void emit_span(telemetry::Phase phase, std::size_t lane,
                 std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) const;

  SimulatorConfig config_;
  // Timing channel armed: a sink is attached AND it wants wall-clock
  // spans (sampled once at construction; the deterministic channel needs
  // no flag -- it is gated on config_.telemetry != nullptr directly).
  bool telemetry_timing_ = false;
  oracle::TimestampedGraph g_;
  // The last step's applied deletes with the timestamps they had in G_{i-1}:
  // with g_, all prev_graph() needs.
  std::vector<std::pair<Edge, Timestamp>> last_deleted_;
  std::unique_ptr<NodeStore> store_;  // all n programs, one allocation
  std::vector<bool> consistent_;
  std::size_t inconsistent_count_ = 0;
  Metrics metrics_;
  Round round_ = 0;
  PhaseTimings timings_;

  // Persistent, reused round state: the event fan-out buckets plus the
  // partitioned routing fabric (O(n) memory once, O(active + messages)
  // work per round, no steady-state allocation).
  ShardedBuckets<EdgeEvent> events_by_node_;  // one lane
  std::size_t shards_;                 // effective S (max(1, config.shards))
  std::size_t lanes_;                  // effective L (max(1, config.threads))
  ShardFabric fabric_;                 // the partitioned message path
  std::vector<Outbox> lane_outbox_;    // one scratch outbox per lane
  std::vector<LaneBook> lane_books_;   // Phase 3 accounting, per slot
  std::vector<std::size_t> active_bounds_;   // partition bounds in active_
  std::vector<std::size_t> stepped_bounds_;  // partition bounds in stepped_
  std::vector<NodeId> active_;        // this round's send-half set, ascending
  std::vector<NodeId> receive_extra_; // pure receivers, ascending
  std::vector<NodeId> stepped_;       // ascending merge of the two, reused
  std::vector<NodeId> carry_;         // wants_to_act() carryover to next round
  std::vector<std::uint32_t> active_mark_;  // epoch stamps for active_ dedup
  std::uint32_t active_epoch_ = 0;
  // Transport seam + degraded-mode recovery state.  The pending vectors
  // are kept sorted (deterministic flicker emission order); an edge lives
  // in at most one of them: pending_delete_ holds present edges awaiting
  // their flicker delete, pending_reinsert_ holds flicker-deleted edges
  // awaiting reinsertion.  pending_incident_[v] counts pipeline edges
  // touching v -- zero (on a clean round) is the undegrade condition.  Only
  // a lost batch starts the pipeline, so apply_loss() sizes it on first
  // use and a run without loss never allocates it.
  std::unique_ptr<Transport> transport_;
  LossReport loss_;                     // per-round scratch
  bool round_had_loss_ = false;
  std::vector<bool> degraded_;
  std::vector<NodeId> degraded_nodes_;  // currently degraded, ascending
  std::vector<Edge> pending_delete_;
  std::vector<Edge> pending_reinsert_;
  std::vector<std::uint32_t> pending_incident_;
  std::vector<EdgeEvent> merged_events_;   // recovery + reconciled workload
  std::vector<EdgeEvent> reconciled_;      // reconcile scratch
  std::unique_ptr<WorkerPool> pool_;  // non-null iff lanes_ >= 2
  // Persistent type-erased slot tasks, each walking slots [begin, end)
  // (built once; a per-round std::function construction would allocate in
  // steady state).
  WorkerPool::TaskFn react_slots_task_;
  WorkerPool::TaskFn receive_slots_task_;
};

}  // namespace dynsub::net
