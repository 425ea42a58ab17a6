// Oracle audits: the executable versions of the paper's correctness
// guarantees.
//
// Each audit inspects every node that currently claims consistency and
// cross-examines its state / answers against the centralized oracle.  They
// return std::nullopt on success and a human-readable description of the
// first violation otherwise (so gtest can report it); benches wrap them in
// DYNSUB_CHECK.
//
// The audited statements (see DESIGN.md Sections 4.1-4.5 for why each is the
// right form, including the one-round lags the paper itself builds in):
//
//   audit_robust2hop   S_v == R^{v,2}(G_i)                          (Thm 7)
//   audit_triangle     S_v == T^{v,2}(G_i), and the triangle listing
//                      equals the oracle's triangles through v      (Thm 1)
//   audit_cliques      k-clique listing equals the oracle's         (Cor 1)
//   audit_robust3hop   R^{v,2}(G_i) u (R^{v,3}(G_{i-1}) \ R^{v,2}(G_{i-1}))
//                        subset-of S~_v subset-of
//                      E^{v,2}(G_i) u (E^{v,3}(G_{i-1}) \ E^{v,2}(G_{i-1}))
//                                                                   (Thm 6)
//   audit_cycle_listing  completeness: every 4-/5-cycle of G_{i-1} whose
//                      nodes are all consistent is reported true by at
//                      least one of them; soundness: a consistent node's
//                      true answer implies the cycle exists in G_{i-1}
//                                                                   (Thm 5)
#pragma once

#include <optional>
#include <string>

#include "net/simulator.hpp"

namespace dynsub::core {

[[nodiscard]] std::optional<std::string> audit_robust2hop(
    const net::Simulator& sim);

[[nodiscard]] std::optional<std::string> audit_triangle(
    const net::Simulator& sim);

[[nodiscard]] std::optional<std::string> audit_cliques(
    const net::Simulator& sim, int k);

// Each G_{i-1} audit rebuilds G_{i-1} (sim.prev_graph(), an O(n + E)
// copy); audit_robust3hop_and_cycles runs both against one rebuild.

[[nodiscard]] std::optional<std::string> audit_robust3hop(
    const net::Simulator& sim);

[[nodiscard]] std::optional<std::string> audit_cycle_listing(
    const net::Simulator& sim);

/// audit_robust3hop, then audit_cycle_listing, against one G_{i-1}.
[[nodiscard]] std::optional<std::string> audit_robust3hop_and_cycles(
    const net::Simulator& sim);

}  // namespace dynsub::core
