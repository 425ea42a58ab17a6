// Small formatting / parsing helpers shared by the harness and examples.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dynsub {

/// Strict unsigned parse: the entire string must be decimal digits and the
/// value must fit in 64 bits -- no signs, whitespace, base prefixes, or
/// silent wrap-around.  Every CLI flag and spec parameter in the repo goes
/// through this one helper so strictness cannot drift between parsers.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

/// "1234567" -> "1,234,567".
[[nodiscard]] std::string with_thousands(std::uint64_t v);

/// Fixed-precision double, e.g. format_double(3.14159, 2) == "3.14".
[[nodiscard]] std::string format_double(double v, int precision);

/// Appends the shortest decimal text that reads back as exactly `v`:
/// integral values inside the exactly-representable window print without
/// a fraction (counters stay the integers they are), everything else at
/// the smallest %g precision that round-trips; non-finite values print as
/// "null".  The JSON documents and the telemetry JSONL both print numbers
/// this way, so their bytes are a pure function of the values.
void append_shortest(std::string& out, double v);

/// append_shortest into a fresh string.
[[nodiscard]] std::string format_shortest(double v);

/// Renders rows as a fixed-width ASCII table; the first row is the header.
[[nodiscard]] std::string render_table(
    const std::vector<std::vector<std::string>>& rows);

}  // namespace dynsub
