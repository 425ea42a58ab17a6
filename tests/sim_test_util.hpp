// Shared helpers for the dynsub test suite.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "net/simulator.hpp"
#include "net/workload.hpp"

namespace dynsub::testing {

using RoundAudit = std::function<std::optional<std::string>(
    const net::Simulator&)>;

/// Drives sim with the workload, invoking `audit` after every round and
/// failing the test on the first violation.  Returns rounds executed.
inline std::size_t run_audited(net::Simulator& sim, net::Workload& workload,
                               std::size_t max_rounds,
                               const RoundAudit& audit) {
  std::size_t rounds = 0;
  while (rounds < max_rounds &&
         !(workload.finished() && sim.all_consistent())) {
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    auto events = workload.finished() ? std::vector<EdgeEvent>{}
                                      : workload.next_round(obs);
    sim.step(events);
    ++rounds;
    if (audit) {
      auto err = audit(sim);
      if (err.has_value()) {
        ADD_FAILURE() << *err;
        return rounds;
      }
    }
  }
  EXPECT_TRUE(sim.all_consistent())
      << "network failed to stabilize within " << max_rounds << " rounds";
  return rounds;
}

/// Replays a fixed script with a per-round audit.
inline std::size_t run_script_audited(
    net::Simulator& sim, std::vector<std::vector<EdgeEvent>> script,
    std::size_t extra_drain, const RoundAudit& audit) {
  net::ScriptedWorkload wl(std::move(script));
  return run_audited(sim, wl, 100000 + extra_drain, audit);
}

/// One single-character corruption of `text`, drawn from `alphabet` -- the
/// mutation step of the PR 3 trace-fuzz harness, shared so the spec-grammar
/// fuzzers (scenario and detector) corrupt input the same way.
template <typename RngT>
std::string mutate_one_char(RngT& rng, std::string text,
                            std::string_view alphabet) {
  if (text.empty()) return text;
  const auto pos = rng.next_below(text.size());
  text[pos] = alphabet[rng.next_below(alphabet.size())];
  return text;
}

}  // namespace dynsub::testing
