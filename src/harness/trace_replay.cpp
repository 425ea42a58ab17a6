#include "harness/trace_replay.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "net/trace.hpp"
#include "net/workload.hpp"

namespace dynsub::harness {

std::optional<detect::Session> open_trace_replay(const std::string& path,
                                                 detect::SessionOptions opts,
                                                 std::string* error) {
  const auto fail = [error](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return std::optional<detect::Session>{};
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open trace '" + path + "'");
  std::stringstream buffered;
  buffered << in.rdbuf();
  const std::string text = buffered.str();

  std::size_t header_n = 0;
  {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line) && !line.empty() && line[0] == '#') {
      if (line.rfind("# n=", 0) != 0) continue;
      const auto v = parse_u64(std::string_view(line).substr(4));
      if (!v || *v == 0) {
        return fail(path + ": corrupt trace header '" + line +
                    "' (want '# n=<count>')");
      }
      header_n = static_cast<std::size_t>(*v);
    }
  }
  if (opts.n != 0 && header_n != 0 && opts.n != header_n) {
    return fail(path + " was recorded at n=" + std::to_string(header_n) +
                " but --n " + std::to_string(opts.n) +
                " was given; a mismatched size changes the simulation "
                "(bandwidth budget, summary), so replay refuses.  Drop --n "
                "or re-record.");
  }

  std::istringstream body(text);
  std::string parse_error;
  auto rounds = net::read_trace(body, &parse_error);
  if (!rounds) return fail(path + ": " + parse_error);
  std::size_t max_id = 0;
  for (const auto& batch : *rounds) {
    for (const auto& ev : batch) {
      max_id = std::max<std::size_t>(max_id, ev.edge.hi());
    }
  }
  if (header_n != 0 && max_id >= header_n) {
    return fail(path + ": trace events reference node " +
                std::to_string(max_id) + " but the header says n=" +
                std::to_string(header_n) +
                "; the trace is corrupt or hand-edited.");
  }

  // Trace node ids are only bounded by 32 bits; Session::open's node-cap
  // gate refuses before the simulator allocates per-node state.
  const std::size_t nodes = std::max({opts.n, header_n, max_id + 1});
  std::string open_error;
  auto session = detect::Session::open(
      std::move(opts), std::make_unique<net::ScriptedWorkload>(
                           std::move(*rounds)),
      nodes, &open_error);
  if (!session) return fail(open_error);
  return session;
}

}  // namespace dynsub::harness
