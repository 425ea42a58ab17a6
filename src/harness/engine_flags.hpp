// Value parsers for the engine flags every command-line front end takes.
//
// dynsub_run, dynsub_serve and the experiment benches all accept
// --threads, --shards and --seed; the two tools also take --faults.  Each
// parser checks one flag's value and returns it, or nullopt with a
// one-line reason naming the flag in *error.  Callers keep their own argv
// loop and --help text, print the reason under their program name and
// exit 2.
//
// Part of the dynsub_cli library, apart from dynsub: programs that take
// no engine flags never link it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/faults.hpp"

namespace dynsub::harness {

/// --threads T: lanes for the round engine, 0..256 (0 and 1 are both the
/// sequential engine).
[[nodiscard]] std::optional<std::size_t> parse_threads_flag(
    std::string_view text, std::string* error);

/// --shards S: partitions of the node-id space, 1..64.
[[nodiscard]] std::optional<std::size_t> parse_shards_flag(
    std::string_view text, std::string* error);

/// --seed S: any unsigned 64-bit integer, strictly parsed ("10O" fails).
[[nodiscard]] std::optional<std::uint64_t> parse_seed_flag(
    std::string_view text, std::string* error);

/// --faults F: 'none' or a chaos(...) plan (net::parse_fault_plan).
[[nodiscard]] std::optional<net::FaultPlan> parse_faults_flag(
    std::string_view text, std::string* error);

}  // namespace dynsub::harness
