#include "scenario/compose.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"

namespace dynsub::scenario {
namespace {

/// Effective per-batch edge state on top of the observed graph: which edges
/// the batch under construction has already claimed, and the presence each
/// claim flipped to.  Batches range from a handful of events to tens of
/// thousands (a workload's bulk first round), so the claims are hashed:
/// filtering a k-event batch costs O(k), not O(k^2).
class BatchState {
 public:
  explicit BatchState(const oracle::TimestampedGraph& g) : g_(g) {}

  [[nodiscard]] bool claimed(Edge e) const { return touched_.contains(e); }

  [[nodiscard]] bool present(Edge e) const {
    auto it = touched_.find(e);
    return it != touched_.end() ? it->second : g_.has_edge(e);
  }

  /// True when applying `ev` would change nothing (insert of a present
  /// edge, delete of an absent one).
  [[nodiscard]] bool is_noop(const EdgeEvent& ev) const {
    return (ev.kind == EventKind::kInsert) == present(ev.edge);
  }

  void commit(const EdgeEvent& ev) {
    touched_.emplace(ev.edge, ev.kind == EventKind::kInsert);
  }

  /// The standard conflict resolution, in one place: walks `batch` in
  /// order, drops claimed-edge repeats and no-ops (counted in `dropped`),
  /// commits and returns the rest.
  std::vector<EdgeEvent> filter(const std::vector<EdgeEvent>& batch,
                                std::size_t& dropped) {
    std::vector<EdgeEvent> out;
    out.reserve(batch.size());
    for (const EdgeEvent& ev : batch) {
      if (claimed(ev.edge) || is_noop(ev)) {
        ++dropped;
        continue;
      }
      commit(ev);
      out.push_back(ev);
    }
    return out;
  }

 private:
  const oracle::TimestampedGraph& g_;
  std::unordered_map<Edge, bool, EdgeHash> touched_;
};

}  // namespace

// ------------------------------------------------------------ sequence ----

SequenceWorkload::SequenceWorkload(
    std::vector<std::unique_ptr<net::Workload>> stages, bool stabilize_between)
    : stages_(std::move(stages)),
      rounds_fed_(stages_.size(), 0),
      stabilize_between_(stabilize_between) {
  DYNSUB_CHECK(!stages_.empty());
  for (const auto& s : stages_) DYNSUB_CHECK(s != nullptr);
}

std::vector<EdgeEvent> SequenceWorkload::next_round(
    const net::WorkloadObservation& obs) {
  while (cursor_ < stages_.size() && stages_[cursor_]->finished()) {
    if (stabilize_between_ && !obs.all_consistent) {
      // Hold the next stage back until the network settles; this quiet
      // round belongs to the gap, not to any stage.
      ++gap_rounds_;
      return {};
    }
    ++cursor_;
  }
  if (cursor_ >= stages_.size()) return {};
  ++rounds_fed_[cursor_];
  // Sanitize like the other combinators: a later stage is blind to what an
  // earlier stage left in the graph (a remapped community's shadow graph
  // starts empty, a flicker script assumes a fresh window), so its batch
  // may contain no-ops or same-edge repeats against the real graph.
  BatchState state(obs.graph);
  return state.filter(stages_[cursor_]->next_round(obs), dropped_);
}

bool SequenceWorkload::finished() const {
  return std::all_of(stages_.begin(), stages_.end(),
                     [](const auto& s) { return s->finished(); });
}

// ------------------------------------------------------------- overlay ----

OverlayWorkload::OverlayWorkload(
    std::vector<std::unique_ptr<net::Workload>> parts)
    : parts_(std::move(parts)) {
  DYNSUB_CHECK(!parts_.empty());
  for (const auto& p : parts_) DYNSUB_CHECK(p != nullptr);
}

std::vector<EdgeEvent> OverlayWorkload::next_round(
    const net::WorkloadObservation& obs) {
  std::vector<EdgeEvent> merged;
  for (const auto& part : parts_) {
    if (part->finished()) continue;
    const std::vector<EdgeEvent> batch = part->next_round(obs);
    merged.insert(merged.end(), batch.begin(), batch.end());
  }
  BatchState state(obs.graph);
  return state.filter(merged, dropped_);
}

bool OverlayWorkload::finished() const {
  return std::all_of(parts_.begin(), parts_.end(),
                     [](const auto& p) { return p->finished(); });
}

// ------------------------------------------------------------ throttle ----

ThrottleWorkload::ThrottleWorkload(std::unique_ptr<net::Workload> inner,
                                   std::size_t cap)
    : inner_(std::move(inner)), cap_(cap) {
  DYNSUB_CHECK(inner_ != nullptr);
  DYNSUB_CHECK(cap_ > 0);
}

std::vector<EdgeEvent> ThrottleWorkload::next_round(
    const net::WorkloadObservation& obs) {
  if (!inner_->finished()) {
    const std::vector<EdgeEvent> batch = inner_->next_round(obs);
    backlog_.insert(backlog_.end(), batch.begin(), batch.end());
    peak_backlog_ = std::max(peak_backlog_, backlog_.size());
  }
  std::vector<EdgeEvent> out;
  BatchState state(obs.graph);
  while (!backlog_.empty() && out.size() < cap_) {
    const EdgeEvent ev = backlog_.front();
    // Emitting strictly a backlog prefix preserves global event order; a
    // second event on an edge already in this batch ends the round.
    if (state.claimed(ev.edge)) break;
    backlog_.pop_front();
    if (state.is_noop(ev)) {
      ++dropped_;
      continue;
    }
    state.commit(ev);
    out.push_back(ev);
  }
  return out;
}

bool ThrottleWorkload::finished() const {
  return inner_->finished() && backlog_.empty();
}

// -------------------------------------------------------------- jitter ----

JitterWorkload::JitterWorkload(std::unique_ptr<net::Workload> inner,
                               std::size_t max_delay, std::uint64_t seed)
    : inner_(std::move(inner)), max_delay_(max_delay), rng_(seed) {
  DYNSUB_CHECK(inner_ != nullptr);
  // slots_ grows to max_delay + 1 entries, and the rng bound is
  // max_delay + 1; an absurd delay means overflow and OOM, not jitter.
  DYNSUB_CHECK(max_delay_ <= kMaxDelay);
}

std::vector<EdgeEvent> JitterWorkload::next_round(
    const net::WorkloadObservation& obs) {
  const Round now = obs.next_round;
  if (!inner_->finished()) {
    for (const EdgeEvent& ev : inner_->next_round(obs)) {
      const std::size_t drawn =
          max_delay_ == 0 ? 0 : static_cast<std::size_t>(rng_.next_below(
                                    static_cast<std::uint64_t>(max_delay_) + 1));
      // Clamp to the edge's floor: same-edge events must keep their
      // arrival order, or a delete could slide in front of its own insert
      // and vanish as a "no-op".
      Round due = now + static_cast<Round>(drawn);
      Round& floor = floor_[ev.edge];
      if (floor > due) due = floor;
      floor = due;
      const std::size_t d = static_cast<std::size_t>(due - now);
      if (slots_.size() <= d) slots_.resize(d + 1);
      slots_[d].push_back(ev);
    }
  }
  std::vector<EdgeEvent> due;
  if (!slots_.empty()) {
    due = std::move(slots_.front());
    slots_.pop_front();
  }
  std::vector<EdgeEvent> out;
  std::vector<EdgeEvent> deferred;
  out.reserve(due.size());
  BatchState state(obs.graph);
  for (const EdgeEvent& ev : due) {
    if (state.claimed(ev.edge)) {
      // Defer rather than drop: the second same-edge event of a round
      // moves one round forward.
      deferred.push_back(ev);
      continue;
    }
    if (state.is_noop(ev)) {
      ++dropped_;
      continue;
    }
    state.commit(ev);
    out.push_back(ev);
  }
  if (!deferred.empty()) {
    // Ahead of anything already scheduled for the next round: everything
    // there on the same edge arrived later (due rounds are per-edge
    // non-decreasing), so prepending keeps per-edge arrival order.
    if (slots_.empty()) slots_.emplace_back();
    slots_.front().insert(slots_.front().begin(), deferred.begin(),
                          deferred.end());
  }
  return out;
}

bool JitterWorkload::finished() const {
  return inner_->finished() &&
         std::all_of(slots_.begin(), slots_.end(),
                     [](const auto& s) { return s.empty(); });
}

// --------------------------------------------------------------- remap ----

RemapWorkload::RemapWorkload(std::unique_ptr<net::Workload> inner,
                             NodeId offset, std::size_t width)
    : inner_(std::move(inner)), offset_(offset), shadow_(width) {
  DYNSUB_CHECK(inner_ != nullptr);
  DYNSUB_CHECK(width >= 2);
}

std::vector<EdgeEvent> RemapWorkload::next_round(
    const net::WorkloadObservation& obs) {
  const net::WorkloadObservation inner_obs{shadow_, obs.next_round,
                                           obs.all_consistent};
  const std::vector<EdgeEvent> batch = inner_->next_round(inner_obs);
  std::vector<EdgeEvent> out;
  out.reserve(batch.size());
  for (const EdgeEvent& ev : batch) {
    DYNSUB_CHECK(ev.edge.hi() < shadow_.node_count());
    shadow_.apply(ev, obs.next_round);
    out.push_back({Edge(ev.edge.lo() + offset_, ev.edge.hi() + offset_),
                   ev.kind});
  }
  return out;
}

}  // namespace dynsub::scenario
