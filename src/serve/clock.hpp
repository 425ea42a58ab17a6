// Pluggable time for the serve layer.
//
// The serve loop timestamps requests on arrival and answers at round
// barriers; round-to-answer latency is the difference of the two clock
// reads.  Which clock supplies them decides what kind of run it is:
//
//   * SimClock -- simulated time in the fake-time-harness style of hnetd's
//     test_hncp_net.c: a counter the loop advances by a fixed tick per
//     round.  Time is then a pure function of the round number, so every
//     latency, every percentile, and the whole answer stream are
//     deterministic -- byte-identical across --threads {1,2,4} and across
//     record/replay.  This is the clock tests and CI drive.
//
//   * WallClock -- std::chrono::steady_clock, for real daemon runs and the
//     bench_serve load generator, where the percentiles are genuine
//     round-to-answer wall latencies.  Nothing produced under WallClock
//     may enter a byte-equality surface.
//
// The interface is deliberately tiny: now_ns() plus the per-round advance
// hook (a no-op for WallClock, whose time advances by itself).
#pragma once

#include <chrono>
#include <cstdint>

namespace dynsub::serve {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds since this clock's (arbitrary) epoch.  Only differences
  /// are meaningful.
  [[nodiscard]] virtual std::uint64_t now_ns() = 0;

  /// Called by the serve loop once per completed engine round; simulated
  /// clocks tick here, real clocks ignore it.
  virtual void advance_round() {}
};

/// Deterministic simulated time: now_ns() == ticks_so_far * tick_ns.
class SimClock final : public Clock {
 public:
  /// Default tick: 1us of simulated time per round -- large enough that a
  /// multi-round wait is visibly larger than a same-barrier answer, small
  /// enough that latencies stay readable in nanoseconds.
  static constexpr std::uint64_t kDefaultTickNs = 1000;

  explicit SimClock(std::uint64_t tick_ns = kDefaultTickNs)
      : tick_ns_(tick_ns) {}

  [[nodiscard]] std::uint64_t now_ns() override { return now_ns_; }
  void advance_round() override { now_ns_ += tick_ns_; }

  /// Manual advance for tests that simulate mid-round arrivals.
  void advance_ns(std::uint64_t ns) { now_ns_ += ns; }
  [[nodiscard]] std::uint64_t tick_ns() const { return tick_ns_; }

 private:
  std::uint64_t tick_ns_;
  std::uint64_t now_ns_ = 0;
};

/// Real time: std::chrono::steady_clock, normalized to construction time
/// so timestamps start near zero (readable in exports).  The epoch is
/// fixed up front, which keeps now_ns() safe to call from many threads.
class WallClock final : public Clock {
 public:
  WallClock() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace dynsub::serve
