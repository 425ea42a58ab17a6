#include "net/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "net/message.hpp"
#include "telemetry/sink.hpp"

namespace dynsub::net {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

Simulator::Simulator(std::size_t n, NodeFactory factory,
                     SimulatorConfig config)
    : config_(config),
      g_(n),
      consistent_(n, true),
      metrics_(n),
      events_by_node_(n, 1),
      shards_(std::max<std::size_t>(1, config.shards)),
      lanes_(std::max<std::size_t>(1, config.threads)),
      fabric_(n, lanes_, shards_),
      lane_outbox_(lanes_),
      lane_books_(lanes_ * shards_),
      active_mark_(n, 0),
      degraded_(n, false) {
  DYNSUB_CHECK(n >= 1);
  metrics_.set_shards(shards_);
  store_ = factory(n);
  DYNSUB_CHECK(store_ != nullptr && store_->size() == n);
  if (config_.faults.enabled) {
    transport_ = std::make_unique<ChaosTransport>(config_.faults);
  } else {
    transport_ = std::make_unique<LocalTransport>();
  }
  if (config_.telemetry != nullptr) {
    telemetry_timing_ = config_.telemetry->timing_enabled();
    config_.telemetry->on_lanes(fabric_.slots());
    config_.telemetry->on_shards(shards_, lanes_);
  }
  if (lanes_ > 1) {
    pool_ = std::make_unique<WorkerPool>(lanes_);
    if (telemetry_timing_) pool_->set_telemetry(config_.telemetry);
  }
  react_slots_task_ = [this](std::size_t lane, std::size_t b,
                             std::size_t e) {
    for (std::size_t p = b; p < e; ++p) react_slot(p, lane_outbox_[lane]);
  };
  receive_slots_task_ = [this](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t p = b; p < e; ++p) receive_slot(p);
  };
}

oracle::TimestampedGraph Simulator::prev_graph() const {
  // The last step stamped its inserts with round_, and no earlier step
  // could, so they are exactly the edges carrying that stamp.
  oracle::TimestampedGraph prev = g_;
  for (const auto& [e, t] : g_.edges()) {
    if (t == round_) prev.apply(EdgeEvent{e, EventKind::kDelete}, round_);
  }
  for (const auto& [e, t] : last_deleted_) {
    prev.apply(EdgeEvent{e, EventKind::kInsert}, t);
  }
  return prev;
}

void Simulator::mark_active(NodeId v) {
  if (active_mark_[v] != active_epoch_) {
    active_mark_[v] = active_epoch_;
    active_.push_back(v);
  }
}

void Simulator::bump_active_epoch() {
  if (++active_epoch_ == 0) {
    // std::uint32_t wrap: stamps left over from the first life of epoch
    // values would alias fresh ones, silently dropping nodes from the
    // active set.  Re-zero every stamp and restart above the zero value
    // the stamps now hold.
    std::fill(active_mark_.begin(), active_mark_.end(), 0);
    active_epoch_ = 1;
  }
}

void Simulator::debug_prime_epoch_wrap(std::uint32_t steps) {
  active_epoch_ = ~std::uint32_t{0} - steps;
}

std::size_t Simulator::retained_capacity() const {
  std::size_t cap = active_.capacity() + receive_extra_.capacity() +
                    stepped_.capacity() + carry_.capacity();
  for (const LaneBook& book : lane_books_) {
    cap += book.flips.capacity() + book.carry.capacity();
  }
  return cap;
}

void Simulator::compute_shard_bounds(const std::vector<NodeId>& ids,
                                     std::vector<std::size_t>& bounds) const {
  // ids is ascending and the partition is contiguous, so each shard's
  // members form one contiguous run; bounds[s]..bounds[s+1] delimits it.
  const Partition& part = fabric_.partition();
  bounds.resize(shards_ + 1);
  bounds[0] = 0;
  for (std::size_t s = 1; s < shards_; ++s) {
    bounds[s] = static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), part.begin(s)) - ids.begin());
  }
  bounds[shards_] = ids.size();
}

std::pair<std::size_t, std::size_t> Simulator::slot_range(
    const std::vector<std::size_t>& bounds, std::size_t slot) const {
  const std::size_t s = slot / lanes_;
  const std::size_t l = slot % lanes_;
  const std::size_t sb = bounds[s];
  const std::size_t sc = bounds[s + 1] - sb;
  return {sb + sc * l / lanes_, sb + sc * (l + 1) / lanes_};
}

void Simulator::run_grid(std::size_t set_size,
                         const WorkerPool::TaskFn& task) {
  if (pool_ != nullptr && set_size > config_.threads_inline_cutoff) {
    pool_->run_tasks(fabric_.slots(), task);
  } else {
    task(0, 0, fabric_.slots());
  }
}

void Simulator::react_slot(std::size_t slot, Outbox& out) {
  // Slots in ascending order cover active_ in ascending sender order, so
  // the lane-major merge at every destination router stays sender-sorted
  // -- the byte-identity anchor of the grid.
  const auto [begin, end] = slot_range(active_bounds_, slot);
  if (begin >= end) return;
  Clock::time_point s0;
  if (telemetry_timing_) s0 = Clock::now();
  const std::size_t n = node_count();
  for (std::size_t i = begin; i < end; ++i) {
    const NodeId v = active_[i];
    out.reset();
    NodeContext ctx{v, n, round_};
    store_->at(v).react_and_send(ctx, events_by_node_.bucket(v), out);
    // Validate and stage straight into the slot's router batch while the
    // node's traffic is hot; Phase 2 merges the slots at the barrier.
    fabric_.stage_outbox(slot, v, out, g_);
  }
  if (telemetry_timing_) {
    emit_span(telemetry::Phase::kReact, slot, s0, Clock::now());
  }
}

void Simulator::receive_slot(std::size_t slot) {
  const auto [begin, end] = slot_range(stepped_bounds_, slot);
  if (begin >= end) return;
  Clock::time_point s0;
  if (telemetry_timing_) s0 = Clock::now();
  // Slot-local bookkeeping: consistency transitions and the carry set are
  // recorded in this slot's book (reduced at the barrier in slot order,
  // which replays the ascending-id bookkeeping walk exactly); the per-node
  // inconsistency meter is written directly -- stepped nodes are
  // partitioned across slots, so concurrent calls always target distinct
  // counters (metrics.hpp contract).
  LaneBook& book = lane_books_[slot];
  const std::size_t n = node_count();
  for (std::size_t i = begin; i < end; ++i) {
    const NodeId v = stepped_[i];
    NodeProgram& program = store_->at(v);
    NodeContext ctx{v, n, round_};
    program.receive_and_update(ctx, fabric_.inbox(v));
    // A degraded node's program cannot know it missed traffic; the engine
    // overrides its self-report until recovery completes.
    const bool ok = program.consistent() && !degraded_[v];
    if (ok != consistent_[v]) book.flips.emplace_back(v, ok);
    if (!ok) metrics_.record_node_inconsistent(v);
    if (config_.sparse_rounds && program.wants_to_act()) {
      book.carry.push_back(v);
    }
  }
  if (telemetry_timing_) {
    emit_span(telemetry::Phase::kReceive, slot, s0, Clock::now());
  }
}

void Simulator::emit_span(telemetry::Phase phase, std::size_t lane,
                          Clock::time_point from, Clock::time_point to) const {
  telemetry::Span s;
  s.phase = phase;
  s.lane = static_cast<std::uint32_t>(lane);
  s.round = round_;
  s.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          from.time_since_epoch())
          .count());
  s.dur_ns = elapsed_ns(from, to);
  config_.telemetry->on_span(s);
}

bool Simulator::erase_sorted(std::vector<Edge>& edges, Edge e) {
  const auto it = std::lower_bound(edges.begin(), edges.end(), e);
  if (it == edges.end() || *it != e) return false;
  edges.erase(it);
  return true;
}

void Simulator::add_pending_delete(Edge e) {
  // An edge enters the flicker pipeline at most once: skip it while it is
  // anywhere in flight (covers the shared edge of two degraded neighbors).
  if (std::binary_search(pending_reinsert_.begin(), pending_reinsert_.end(),
                         e)) {
    return;
  }
  const auto it =
      std::lower_bound(pending_delete_.begin(), pending_delete_.end(), e);
  if (it != pending_delete_.end() && *it == e) return;
  pending_delete_.insert(it, e);
  ++pending_incident_[e.lo()];
  ++pending_incident_[e.hi()];
}

std::span<const EdgeEvent> Simulator::reconcile_and_recover(
    std::span<const EdgeEvent> events) {
  if (pending_delete_.empty() && pending_reinsert_.empty()) return events;

  // 1. Reconcile the workload batch against the pipeline.  The workload's
  // edge model has not seen our flicker deletes, so its ops on pipeline
  // edges must be translated to keep the *net* topology exactly what the
  // workload intends (the oracle and all audits follow the real graph
  // either way):
  //   * delete of a flicker-absent edge -- the workload retracts an edge
  //     we already removed; dropping both its delete and our reinsert is
  //     the identical end state.
  //   * insert of a flicker-absent edge -- apply it and cancel our
  //     reinsert (the insert re-triggers the same state rebuild).
  //   * delete of an edge still awaiting its flicker delete -- apply it
  //     and retire the flicker entirely: a genuinely deleted edge purges
  //     the degraded endpoint's state just as the flicker would have,
  //     and nothing may be reinserted against the workload's intent.
  reconciled_.clear();
  for (const EdgeEvent& ev : events) {
    if (std::binary_search(pending_reinsert_.begin(), pending_reinsert_.end(),
                           ev.edge)) {
      erase_sorted(pending_reinsert_, ev.edge);
      --pending_incident_[ev.edge.lo()];
      --pending_incident_[ev.edge.hi()];
      if (ev.kind == EventKind::kDelete) continue;  // annihilates the flicker
      reconciled_.push_back(ev);
      continue;
    }
    if (erase_sorted(pending_delete_, ev.edge)) {
      --pending_incident_[ev.edge.lo()];
      --pending_incident_[ev.edge.hi()];
    }
    reconciled_.push_back(ev);
  }

  // 2. Emit recovery events, but only after a clean barrier -- flickers
  // issued into rounds that are still losing batches would be lost too
  // and churn forever; the engine waits until delivery resumes.  After
  // step 1 the pipeline is disjoint from the workload batch, so the
  // merged batch stays applicable (each edge at most once per round).
  merged_events_.clear();
  if (!round_had_loss_) {
    TransportStats& stats = metrics_.transport_mut();
    for (const Edge e : pending_reinsert_) {
      merged_events_.push_back(EdgeEvent{e, EventKind::kInsert});
      --pending_incident_[e.lo()];
      --pending_incident_[e.hi()];
      ++stats.recovery_events;
    }
    pending_reinsert_.clear();
    for (const Edge e : pending_delete_) {
      merged_events_.push_back(EdgeEvent{e, EventKind::kDelete});
      ++stats.recovery_events;
    }
    // The deleted edges await their reinsert in the next clean round;
    // both vectors are sorted, so the swap keeps the invariant.
    pending_reinsert_.swap(pending_delete_);
    pending_delete_.clear();
  }
  merged_events_.insert(merged_events_.end(), reconciled_.begin(),
                        reconciled_.end());
  return merged_events_;
}

void Simulator::apply_loss() {
  if (pending_incident_.empty()) pending_incident_.assign(node_count(), 0);
  auto& lost = loss_.lost_destinations;
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  for (const NodeId v : lost) {
    if (!degraded_[v]) {
      degraded_[v] = true;
      degraded_nodes_.push_back(v);
      ++metrics_.transport_mut().degraded_marks;
      if (consistent_[v]) {
        consistent_[v] = false;
        ++inconsistent_count_;
      }
    }
    // (Re-)enumerate v's current incident edges into the flicker pipeline:
    // whatever the lost batch carried, it arrived over edges of G_i, and a
    // full delete+reinsert of each forces both endpoints to rebuild their
    // per-edge state from scratch.
    for (const NodeId u : g_.neighbors(v)) add_pending_delete(Edge(v, u));
  }
  std::sort(degraded_nodes_.begin(), degraded_nodes_.end());
}

void Simulator::maybe_undegrade() {
  if (degraded_nodes_.empty() || round_had_loss_) return;
  // A clean barrier delivered this round's batches -- including the
  // reinsert-triggered rebuild traffic -- so a degraded node with no
  // pipeline edges left is back under the normal consistency contract:
  // report its program's own truth (it keeps converging as after any
  // churn; an inconsistent program is always active).
  std::size_t keep = 0;
  for (const NodeId v : degraded_nodes_) {
    if (pending_incident_[v] > 0) {
      degraded_nodes_[keep++] = v;
      continue;
    }
    degraded_[v] = false;
    if (store_->at(v).consistent() && !consistent_[v]) {
      consistent_[v] = true;
      --inconsistent_count_;
    }
  }
  degraded_nodes_.resize(keep);
}

RoundResult Simulator::step(std::span<const EdgeEvent> events) {
  const std::size_t n = node_count();
  // One shared gate for every clock read: the phase-timing accumulator
  // and the telemetry timing channel reuse the same t0..t3 samples, so
  // with both off the hot path performs no clock calls at all.
  const bool timed = config_.collect_phase_timings || telemetry_timing_;
  telemetry::TelemetrySink* const sink = config_.telemetry;
  TransportStats transport_base;
  if (sink != nullptr) transport_base = metrics_.transport();
  ++round_;
  Clock::time_point t0;
  if (timed) t0 = Clock::now();

  // --- Phase 0: apply this round's events and assemble the active set. ---
  // Degraded-mode recovery: screen the workload batch against the flicker
  // pipeline and prepend this round's recovery events (no-op without
  // pending recovery, i.e. always for the fault-free engine).
  events = reconcile_and_recover(events);
  DYNSUB_CHECK_MSG(g_.batch_applicable(events),
                   "round " << round_ << ": workload batch not applicable");
  events_by_node_.begin_round();
  bump_active_epoch();
  active_.clear();
  // Round 1 bootstraps densely: every program runs once and declares its
  // intent through wants_to_act(); from then on the carryover + events +
  // traffic exactly cover every node that can act (node.hpp contract).
  const bool dense = !config_.sparse_rounds || round_ == 1;
  if (!dense && round_ == 2) {
    // The first sparse round: the bootstrap grew both node sets to n, and
    // nothing after it needs more than O(active) of either.
    std::vector<NodeId>().swap(active_);
    std::vector<NodeId>().swap(stepped_);
  }
  if (dense) {
    for (NodeId v = 0; v < n; ++v) {
      active_mark_[v] = active_epoch_;
      active_.push_back(v);
    }
  } else {
    for (NodeId v : carry_) mark_active(v);
  }
  last_deleted_.clear();
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kDelete) {
      last_deleted_.emplace_back(ev.edge, g_.timestamp(ev.edge));
    }
    g_.apply(ev, round_);
    events_by_node_.stage(0, ev.edge.lo(), ev);
    events_by_node_.stage(0, ev.edge.hi(), ev);
    metrics_.record_node_change(ev.edge.lo());
    metrics_.record_node_change(ev.edge.hi());
    if (!dense) {
      mark_active(ev.edge.lo());
      mark_active(ev.edge.hi());
    }
  }
  events_by_node_.merge();
  if (!dense) std::sort(active_.begin(), active_.end());
  Clock::time_point t1;
  if (timed) {
    t1 = Clock::now();
    if (config_.collect_phase_timings) timings_.apply_ns += elapsed_ns(t0, t1);
    if (telemetry_timing_) emit_span(telemetry::Phase::kApply, 0, t0, t1);
  }

  // --- Phase 1: react & send (first half of the communication round),
  // fused with routing validation + staging, over the slot grid: every
  // slot s*L + l reacts its own contiguous chunk of shard s's slice of
  // active_, so slot-major staging order is ascending sender order.
  // Cross-shard traffic lands in per-slot egress batches that cross the
  // Transport seam as encoded frames in Phase 2. ---
  fabric_.begin_round(round_);
  compute_shard_bounds(active_, active_bounds_);
  run_grid(active_.size(), react_slots_task_);
  Clock::time_point t2;
  if (timed) {
    t2 = Clock::now();
    if (config_.collect_phase_timings) timings_.react_ns += elapsed_ns(t1, t2);
    // No step-level kReact span: react_slot reports react time per slot.
  }

  // --- Phase 2: the staged lane batches cross the transport seam (a
  // no-op for LocalTransport; the fault plan's whole protocol for
  // ChaosTransport), then the round barrier's deterministic lane-major
  // merge -- per-destination inboxes come out sender-sorted -- plus the
  // lane-order reduction of the per-lane traffic counters. ---
  loss_.lost_destinations.clear();
  round_had_loss_ = false;
  transport_->exchange(fabric_, round_, metrics_, &loss_);
  Clock::time_point te;
  if (telemetry_timing_) {
    te = Clock::now();
    emit_span(telemetry::Phase::kExchange, 0, t2, te);
  }
  if (loss_.any()) {
    round_had_loss_ = true;
    apply_loss();
  }
  if (sink != nullptr) {
    // Per-ingress-frame encoded sizes (timing/diagnostic channel only:
    // they depend on the shard/lane geometry, so they never enter
    // RoundRecord).  Must be sampled here -- merge() moves the staged
    // items out.  With one shard this is exactly the old per-lane loop.
    for (std::size_t d = 0; d < shards_; ++d) {
      for (std::size_t j = 0; j < fabric_.slots(); ++j) {
        sink->on_wire_bytes(fabric_.ingress_header(d, j).wire_size());
      }
    }
  }
  const LaneTraffic traffic = fabric_.merge();

  // Pure receivers join the receive half of the round.
  receive_extra_.clear();
  auto note_receiver = [&](NodeId u) {
    if (active_mark_[u] != active_epoch_) {
      active_mark_[u] = active_epoch_;
      receive_extra_.push_back(u);
    }
  };
  for (std::size_t s = 0; s < shards_; ++s) {
    const Router& r = fabric_.router(s);
    for (NodeId u : r.payload_touched()) note_receiver(u);
    for (NodeId u : r.busy_touched()) note_receiver(u);
    for (NodeId u : r.two_hop_touched()) note_receiver(u);
  }
  std::sort(receive_extra_.begin(), receive_extra_.end());
  Clock::time_point t3;
  if (timed) {
    t3 = Clock::now();
    if (config_.collect_phase_timings) timings_.route_ns += elapsed_ns(t2, t3);
    if (telemetry_timing_) emit_span(telemetry::Phase::kRoute, 0, te, t3);
  }

  // --- Phase 3: receive & update (second half of the round), over the
  // ascending merge of active_ and receive_extra_, on the same slot grid.
  // Each slot records its chunk's consistency flips and carry nodes in its
  // own book; the barrier reduces the books in slot order, which is
  // ascending id order. ---
  carry_.clear();
  stepped_.clear();
  {
    std::size_t a = 0, e = 0;
    while (a < active_.size() || e < receive_extra_.size()) {
      if (e >= receive_extra_.size() ||
          (a < active_.size() && active_[a] < receive_extra_[e])) {
        stepped_.push_back(active_[a++]);
      } else {
        stepped_.push_back(receive_extra_[e++]);
      }
    }
  }
  for (auto& book : lane_books_) {
    book.flips.clear();
    book.carry.clear();
  }
  compute_shard_bounds(stepped_, stepped_bounds_);
  run_grid(stepped_.size(), receive_slots_task_);
  std::uint64_t flips_down = 0;
  std::uint64_t flips_up = 0;
  for (const auto& book : lane_books_) {
    for (const auto& [v, ok] : book.flips) {
      consistent_[v] = ok;
      if (ok) {
        --inconsistent_count_;
        ++flips_up;
      } else {
        ++inconsistent_count_;
        ++flips_down;
      }
    }
    carry_.insert(carry_.end(), book.carry.begin(), book.carry.end());
  }
  maybe_undegrade();

  // --- Metering. ---
  metrics_.record_round(round_, events.size(), inconsistent_count_,
                        traffic.messages, traffic.payload_bits);
  if (timed) {
    const Clock::time_point t4 = Clock::now();
    if (config_.collect_phase_timings) {
      timings_.receive_ns += elapsed_ns(t3, t4);
    }
    if (telemetry_timing_) emit_span(telemetry::Phase::kRound, 0, t0, t4);
  }
  if (sink != nullptr) {
    // Deterministic channel: everything here is a pure function of the
    // event stream and the fault plan -- no wall-clock values and none
    // of the lane-count-dependent wire accounting.
    const TransportStats delta = metrics_.transport() - transport_base;
    telemetry::RoundRecord rec;
    rec.round = round_;
    rec.changes = events.size();
    rec.active = active_.size();
    rec.stepped = stepped_.size();
    rec.messages = traffic.messages;
    rec.payload_bits = traffic.payload_bits;
    rec.inconsistent_nodes = inconsistent_count_;
    rec.flips_down = flips_down;
    rec.flips_up = flips_up;
    rec.degraded_nodes = degraded_nodes_.size();
    rec.had_loss = round_had_loss_;
    rec.transport_retries = delta.retries;
    rec.transport_drops = delta.drops;
    rec.transport_corruptions = delta.corruptions;
    rec.transport_redeliveries = delta.redeliveries;
    rec.transport_backoff_units = delta.backoff_units;
    rec.transport_lost_batches = delta.lost_batches;
    rec.transport_degraded_marks = delta.degraded_marks;
    rec.transport_recovery_events = delta.recovery_events;
    rec.inconsistent_rounds = metrics_.inconsistent_rounds();
    rec.changes_total = metrics_.changes();
    rec.amortized = metrics_.amortized();
    rec.amortized_sup = metrics_.amortized_sup();
    sink->on_round(rec);
  }

  RoundResult result;
  result.round = round_;
  result.changes = events.size();
  result.messages = static_cast<std::size_t>(traffic.messages);
  result.inconsistent_nodes = inconsistent_count_;
  return result;
}

std::size_t Simulator::run_until_stable(std::size_t max_rounds) {
  std::size_t rounds = 0;
  // all_consistent() is an O(1) counter check; each quiet step costs
  // O(active), and an inconsistent node is always active (node.hpp
  // contract), so this loop does no full-vector scans.
  while (rounds < max_rounds && !all_consistent()) {
    step({});
    ++rounds;
  }
  return rounds;
}

}  // namespace dynsub::net
