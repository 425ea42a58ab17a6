#include "common/format.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace dynsub {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  constexpr std::uint64_t kMax = 0xFFFFFFFFFFFFFFFFull;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;  // would overflow
    value = value * 10 + digit;
  }
  return value;
}

std::string with_thousands(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int since_sep = static_cast<int>(digits.size() % 3);
  if (since_sep == 0) since_sep = 3;
  for (char c : digits) {
    if (since_sep == 0) {
      out.push_back(',');
      since_sep = 3;
    }
    out.push_back(c);
    --since_sep;
  }
  return out;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void append_shortest(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no inf/nan; null keeps the document valid
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) {
      out += probe;
      return;
    }
  }
  out += buf;
}

std::string format_shortest(double v) {
  std::string out;
  append_shortest(out, v);
  return out;
}

std::string render_table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return "";
  std::size_t cols = 0;
  for (const auto& r : rows) cols = std::max(cols, r.size());
  std::vector<std::size_t> width(cols, 0);
  for (const auto& r : rows) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << '|';
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string();
      os << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
    if (i == 0) {
      os << '|';
      for (std::size_t c = 0; c < cols; ++c) {
        os << std::string(width[c] + 2, '-') << '|';
      }
      os << '\n';
    }
  }
  return os.str();
}

}  // namespace dynsub
