#include "serve/loop.hpp"

#include <algorithm>
#include <utility>

#include "net/workload.hpp"

namespace dynsub::serve {

namespace {

/// The detector surface's validity rules (detect::query_refusal and
/// list_refusal) as refusals: the surface aborts on a malformed query, a
/// programming error in a library caller, but a long-lived daemon's
/// requests come from clients, and a client must never be able to crash
/// the engine.  Returns nullptr when the request is safe to evaluate, else
/// the refusal reason (the response answers kInconsistent and carries it
/// in `detail`).
const char* refusal_reason(const detect::Session& session,
                           const Request& req) {
  switch (req.kind) {
    case RequestKind::kQuery:
      return detect::query_refusal(session.detector(), session.nodes(),
                                   req.node, req.query);
    case RequestKind::kList:
      return detect::list_refusal(session.detector(), session.nodes(),
                                  req.node, req.list_kind);
    case RequestKind::kAudit:
      break;
  }
  return nullptr;
}

}  // namespace

double ServeStats::queries_per_sec() const {
  if (answered == 0 || last_answer_ns <= first_arrival_ns) return 0.0;
  const double secs =
      static_cast<double>(last_answer_ns - first_arrival_ns) / 1e9;
  return static_cast<double>(answered) / secs;
}

ServeLoop::ServeLoop(detect::Session& session, Clock& clock,
                     ServeConfig config)
    : session_(session),
      clock_(clock),
      config_(config),
      queue_(config.queue) {
  barrier_round_.store(session_.sim().round(), std::memory_order_relaxed);
}

std::size_t ServeLoop::run(const RequestScript& script,
                           const AnswerFn& on_answer) {
  std::size_t cursor = 0;
  std::size_t rounds = 0;
  std::size_t settle = 0;
  const std::size_t total = script.entries.size();
  // Under kBlock a full queue stalls the producer: the stamped entry waits
  // here and retries at later barriers, arriving when space frees.
  std::optional<Request> blocked;

  while (rounds < config_.max_rounds) {
    const Round next = session_.sim().round() + 1;

    // 1. Submit arrivals scheduled for the round about to execute.
    if (blocked) {
      blocked->arrival_ns = clock_.now_ns();
      blocked->arrival_round = next;
      if (queue_.try_submit(*blocked)) {
        note_arrival(blocked->arrival_ns);
        blocked.reset();
      }
    }
    while (!blocked && cursor < total &&
           script.entries[cursor].round <= next) {
      Request req = script.entries[cursor].request;
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        req.id = next_id_++;
      }
      req.arrival_ns = clock_.now_ns();
      req.arrival_round = next;
      ++cursor;
      if (queue_.try_submit(req)) {
        note_arrival(req.arrival_ns);
        continue;
      }
      if (queue_.config().policy == OverflowPolicy::kShed) {
        queue_.count_shed();
        note_arrival(req.arrival_ns);
        on_answer(shed_now(req));
        continue;
      }
      blocked = std::move(req);
    }

    // Done when nothing is pending anywhere and the network settled (or
    // the settle allowance ran out).
    const bool idle = !blocked && cursor >= total &&
                      session_.workload_finished() && queue_.depth() == 0;
    if (idle) {
      if (session_.settled() || settle >= net::kDrainCap) break;
      ++settle;
    }

    // 2-4. Step, tick, answer at the barrier.
    tick(on_answer);
    ++rounds;
  }
  return rounds;
}

std::size_t ServeLoop::tick(const AnswerFn& on_answer) {
  if (!session_.advance()) session_.step({});
  clock_.advance_round();
  barrier_round_.store(session_.sim().round(), std::memory_order_relaxed);
  scratch_.clear();
  queue_.drain(scratch_, config_.drain_budget);
  for (const Request& req : scratch_) on_answer(answer_now(req));
  return scratch_.size();
}

std::optional<Response> ServeLoop::submit(Request req) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    req.id = next_id_++;
  }
  // Stamped before a possible kBlock stall, so the latency a blocked
  // client eventually sees includes the time it spent blocked -- the
  // client-perceived round-to-answer time.
  req.arrival_ns = clock_.now_ns();
  req.arrival_round = barrier_round_.load(std::memory_order_relaxed) + 1;
  note_arrival(req.arrival_ns);
  if (queue_.submit(req)) return std::nullopt;
  return shed_now(req);
}

Response ServeLoop::answer_now(const Request& req) {
  const detect::SessionSnapshot snap = session_.snapshot();
  Response r;
  r.id = req.id;
  r.kind = req.kind;
  r.status = Status::kOk;
  r.node = req.node;
  r.round = snap.round;
  if (const char* reason = refusal_reason(session_, req)) {
    r.answer = net::Answer::kInconsistent;
    r.detail = reason;
  } else {
    switch (req.kind) {
      case RequestKind::kQuery:
        r.answer = session_.query(req.node, req.query);
        break;
      case RequestKind::kList: {
        const auto tuples = session_.list(req.node, req.list_kind);
        if (tuples) {
          r.answer = net::Answer::kTrue;
          r.list_count = tuples->size();
        } else {
          r.answer = net::Answer::kInconsistent;
        }
        break;
      }
      case RequestKind::kAudit: {
        auto failure = session_.audit();
        if (failure) {
          r.answer = net::Answer::kFalse;
          r.detail = std::move(*failure);
        } else {
          r.answer = net::Answer::kTrue;
        }
        break;
      }
    }
  }
  r.arrival_round = req.arrival_round;
  r.arrival_ns = req.arrival_ns;
  r.answer_ns = clock_.now_ns();
  r.latency_ns = r.answer_ns - req.arrival_ns;
  r.backlog = queue_.depth();
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++answered_;
    latency_ns_.record(r.latency_ns);
    last_answer_ns_ = std::max(last_answer_ns_, r.answer_ns);
  }
  return r;
}

Response ServeLoop::shed_now(const Request& req) {
  Response r;
  r.id = req.id;
  r.kind = req.kind;
  r.status = Status::kShed;
  r.node = req.node;
  r.round = barrier_round_.load(std::memory_order_relaxed);
  r.answer = net::Answer::kInconsistent;
  r.arrival_round = req.arrival_round;
  r.arrival_ns = req.arrival_ns;
  r.answer_ns = req.arrival_ns;
  r.latency_ns = 0;
  r.backlog = queue_.depth();
  return r;
}

void ServeLoop::note_arrival(std::uint64_t arrival_ns) {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  if (!has_arrival_ || arrival_ns < first_arrival_ns_) {
    first_arrival_ns_ = arrival_ns;
    has_arrival_ = true;
  }
}

ServeStats ServeLoop::stats() const {
  ServeStats s;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    s.answered = answered_;
    s.first_arrival_ns = has_arrival_ ? first_arrival_ns_ : 0;
    s.last_answer_ns = last_answer_ns_;
    s.latency_ns = latency_ns_;
  }
  s.submitted = queue_.accepted_total();
  s.shed = queue_.shed_total();
  s.backlog_peak = queue_.peak_depth();
  return s;
}

}  // namespace dynsub::serve
