#include "harness/engine_flags.hpp"

#include <utility>

#include "common/format.hpp"

namespace dynsub::harness {

bool FlagReader::next() {
  if (!ok() || i_ + 1 >= argc_) return false;
  ++i_;
  return true;
}

bool FlagReader::flag(std::string_view name, std::string_view* value) {
  const std::string_view arg = argv_[i_];
  if (arg.substr(0, name.size()) != name) return false;
  const std::string_view rest = arg.substr(name.size());
  if (!rest.empty()) {
    if (rest[0] != '=') return false;  // "--names-only" is not "--n"
    *value = rest.substr(1);
    return true;
  }
  if (i_ + 1 >= argc_) {
    fail(std::string(name) + " requires a value");
    return false;
  }
  *value = argv_[++i_];
  return true;
}

bool FlagReader::flag(std::string_view name) const {
  return argv_[i_] == name;
}

void FlagReader::unknown() {
  fail("unknown argument '" + std::string(argv_[i_]) + "' (try --help)");
}

void FlagReader::fail(std::string why) {
  if (ok()) error_ = std::move(why);
}

namespace {

/// Strict unsigned parse in [lo, hi]; on failure *error reads
/// "<flag> wants an unsigned integer<range>, got '<text>'".
std::optional<std::uint64_t> parse_in_range(std::string_view flag,
                                            std::string_view range,
                                            std::uint64_t lo, std::uint64_t hi,
                                            std::string_view text,
                                            std::string* error) {
  const auto v = parse_u64(text);
  if (v && *v >= lo && *v <= hi) return v;
  if (error != nullptr) {
    *error = std::string(flag) + " wants an unsigned integer" +
             std::string(range) + ", got '" + std::string(text) + "'";
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::uint64_t> parse_u64_flag(std::string_view flag,
                                            std::string_view text,
                                            std::string* error) {
  return parse_in_range(flag, "", 0, ~std::uint64_t{0}, text, error);
}

std::optional<std::size_t> parse_threads_flag(std::string_view text,
                                              std::string* error) {
  const auto v =
      parse_in_range("--threads", " <= 256", 0, 256, text, error);
  if (!v) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

std::optional<std::size_t> parse_shards_flag(std::string_view text,
                                             std::string* error) {
  const auto v =
      parse_in_range("--shards", " in 1..64", 1, 64, text, error);
  if (!v) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

std::optional<std::uint64_t> parse_seed_flag(std::string_view text,
                                             std::string* error) {
  return parse_u64_flag("--seed", text, error);
}

std::optional<net::FaultPlan> parse_faults_flag(std::string_view text,
                                                std::string* error) {
  std::string why;
  auto plan = net::parse_fault_plan(text, &why);
  if (!plan && error != nullptr) *error = "--faults: " + why;
  return plan;
}

}  // namespace dynsub::harness
