// ServeLoop -- the round-barrier query engine of the serve layer.
//
// The loop interleaves two streams against one detect::Session:
//
//   * the churn stream: the session's workload (a scenario or a replayed
//     trace) advanced one round at a time via Session::advance(), with
//     quiet rounds once the workload is done;
//   * the request stream: client query()/list()/audit() calls, timestamped
//     on arrival, queued, and answered ONLY at round barriers -- between
//     steps, while the engine is parked, so every answer reflects one
//     immutable snapshot (the end of round R) and is never torn across
//     rounds.  Responses carry that round.
//
// Per-iteration order (the invariant everything else hangs off):
//
//   1. submit arrivals scheduled for the round about to execute -- they are
//      stamped with the pre-step clock reading, so even a same-barrier
//      answer has latency >= one clock tick (true round-to-answer time);
//   2. step the session one round (workload round or quiet round);
//   3. tick the clock (Clock::advance_round);
//   4. barrier drain: answer up to `drain_budget` queued requests against
//      the just-completed round's snapshot.
//
// Backpressure at step 1 follows the queue's policy.  kShed refuses
// immediately: the scripted driver emits the refusal Response inline
// (status=shed, answer=inconsistent, the model's honest "cannot say").
// kBlock stalls the producer: the scripted driver models the stall by
// holding the entry back and retrying at later rounds -- the request
// arrives (and is stamped) when space frees, exactly what a blocked client
// experiences.  The engine side never blocks on the queue (drain is
// non-blocking), so a blocked client cannot stall the round barrier.
//
// Under SimClock the whole thing -- answer stream, latencies, percentiles
// -- is a pure function of (scenario seed, request script, config), hence
// byte-identical across --threads {1,2,4} and record/replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "detect/session.hpp"
#include "serve/clock.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "telemetry/histogram.hpp"

namespace dynsub::serve {

struct ServeConfig {
  QueueConfig queue{};
  /// Answers per round barrier; 0 = drain everything.  Small budgets let a
  /// backlog build across rounds (the backpressure showcase).
  std::size_t drain_budget = 0;
  /// Hard cap on rounds executed by run() (safety net, like Session's).
  std::size_t max_rounds = 1000000;
};

/// What a serve run did, in numbers.  latency_ns is the round-to-answer
/// latency histogram that feeds answer_p50_ns / answer_p99_ns.
struct ServeStats {
  std::uint64_t submitted = 0;  // accepted into the queue
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
  std::uint64_t backlog_peak = 0;
  std::uint64_t first_arrival_ns = 0;
  std::uint64_t last_answer_ns = 0;
  telemetry::Log2Histogram latency_ns;

  /// Answered requests per second of clock time over the serving window
  /// (first arrival to last answer); 0 when the window is empty.
  [[nodiscard]] double queries_per_sec() const;
};

class ServeLoop {
 public:
  using AnswerFn = std::function<void(const Response&)>;

  ServeLoop(detect::Session& session, Clock& clock, ServeConfig config);

  /// Drives the whole scripted run: submits each scheduled request while
  /// its round is in flight, steps churn rounds, answers at barriers, and
  /// keeps going until the script and workload are exhausted, the queue is
  /// empty, and the network settles (bounded by max_rounds, and by
  /// net::kDrainCap quiet rounds of settling, run_workload's trailing
  /// drain).
  /// `on_answer` sees every Response -- answers and sheds -- in
  /// deterministic order.  Returns the number of rounds executed.
  std::size_t run(const RequestScript& script, const AnswerFn& on_answer);

  /// One iteration of steps 2-4 above (step round, tick clock, barrier
  /// drain); submissions are the caller's job (the threaded Server's
  /// clients submit from their own threads).  Returns responses produced.
  std::size_t tick(const AnswerFn& on_answer);

  /// Stamps and offers a request under the queue's policy, assigning its
  /// id.  Blocks under kBlock when full.  Returns the refusal Response
  /// when the request was shed, std::nullopt when it was accepted.
  std::optional<Response> submit(Request req);

  [[nodiscard]] RequestQueue& queue() { return queue_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }
  [[nodiscard]] ServeStats stats() const;

 private:
  /// Answers one dequeued request against the current barrier snapshot.
  Response answer_now(const Request& req);
  /// Builds the refusal Response of a just-shed request.
  Response shed_now(const Request& req);
  void note_arrival(std::uint64_t arrival_ns);

  detect::Session& session_;
  Clock& clock_;
  ServeConfig config_;
  RequestQueue queue_;
  /// Last completed round, mirrored atomically so client threads can stamp
  /// refusals without reading the (engine-owned) session.
  std::atomic<Round> barrier_round_{0};
  /// Guards the id counter and stats fields below -- submit() runs on
  /// client threads while tick() answers on the engine thread.
  mutable std::mutex stats_mu_;
  std::uint64_t next_id_ = 1;
  std::uint64_t answered_ = 0;
  bool has_arrival_ = false;
  std::uint64_t first_arrival_ns_ = 0;
  std::uint64_t last_answer_ns_ = 0;
  telemetry::Log2Histogram latency_ns_;
  std::vector<Request> scratch_;  // engine-thread drain buffer
};

}  // namespace dynsub::serve
