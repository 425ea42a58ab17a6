#include "harness/engine_flags.hpp"

#include "common/format.hpp"

namespace dynsub::harness {

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
  return parse_in_range("--seed", "", 0, ~std::uint64_t{0}, text, error);
}

std::optional<net::FaultPlan> parse_faults_flag(std::string_view text,
                                                std::string* error) {
  std::string why;
  auto plan = net::parse_fault_plan(text, &why);
  if (!plan && error != nullptr) *error = "--faults: " + why;
  return plan;
}

}  // namespace dynsub::harness
