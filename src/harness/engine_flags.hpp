// The argv grammar and flag value parsers of every command-line front end.
//
// dynsub_run and the experiment benches read their flags through one
// FlagReader, so a flag is spelled the same way everywhere: "--name value"
// or "--name=value", with the name matched exactly.  They all accept
// --threads, --shards and --seed; dynsub_run also takes --faults and a few
// plain unsigned integers (--n, --max-rounds, ...).  Each value parser
// checks one flag's value and returns it, or nullopt with a one-line
// reason naming the flag in *error.  Callers keep their own --help text,
// print the first error under their program name and exit 2.
//
// Part of the dynsub_cli library, apart from dynsub: programs that take
// no flags (perfbench) never link it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/faults.hpp"

namespace dynsub::harness {

/// Walks argv one argument at a time and matches it against flag names.
/// The first error (a missing value, an unknown argument, or whatever a
/// caller records with fail()) ends the walk and is the one reported:
///
///   FlagReader args(argc, argv);
///   std::string_view v;
///   while (args.next()) {
///     if (args.flag("--json", &v)) json_path = v;
///     else if (args.flag("--quick")) quick = true;
///     else args.unknown();
///   }
///   if (!args.ok()) { print args.error(); exit 2; }
class FlagReader {
 public:
  FlagReader(int argc, const char* const* argv) : argc_(argc), argv_(argv) {}

  /// Steps to the next argument; false past the last one or once an error
  /// is recorded.
  bool next();

  /// Whether the current argument names the value-taking flag `name`
  /// ("--json"), exactly: "--json path" (consuming the next argument) or
  /// "--json=path".  On a match, *value is the flag's value.  A name with
  /// no value after it records "<name> requires a value" and returns
  /// false.
  bool flag(std::string_view name, std::string_view* value);

  /// Whether the current argument is the switch `name` ("--quick").
  [[nodiscard]] bool flag(std::string_view name) const;

  /// Records "unknown argument '<arg>' (try --help)" for the current
  /// argument.
  void unknown();

  /// Records `why` unless an earlier error is already recorded.
  void fail(std::string why);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  int argc_;
  const char* const* argv_;
  int i_ = 0;
  std::string error_;
};

/// --n, --max-rounds, ...: any unsigned 64-bit integer, strictly parsed
/// ("10O0", "-1" and "" fail).  `flag` names the flag in the reason.
[[nodiscard]] std::optional<std::uint64_t> parse_u64_flag(
    std::string_view flag, std::string_view text, std::string* error);

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
