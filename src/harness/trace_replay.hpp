// Opening a Session that replays a recorded event trace: dynsub_run's
// --replay path, with or without a request mode.
//
// Traces dynsub_run records carry "# n=<count>" in their header, so a
// replay reproduces the exact simulator size (idle top ids included)
// without the user re-supplying --n; the record/replay byte-equality
// contract depends on it.  A header that disagrees with the trace body or
// with --n means the replay would silently simulate something other than
// what was recorded, so every mismatch is a refusal, not a best-effort
// fallback.
//
// Part of the dynsub_cli library, apart from dynsub: programs without a
// --replay flag never link it.
#pragma once

#include <optional>
#include <string>

#include "detect/session.hpp"

namespace dynsub::harness {

/// Reads the trace file at `path` and opens a Session that replays it
/// under `opts` (whose `scenario` must be empty; `opts.n` is the --n flag,
/// 0 when absent).  The simulator gets max(opts.n, the header's n, largest
/// node id + 1) nodes.  Returns std::nullopt with a one-line reason in
/// *error (when given) if the file cannot be read, its "# n=" header is
/// not a positive integer, opts.n disagrees with the header, the body is
/// malformed or names a node id the header does not cover, or
/// Session::open refuses.
[[nodiscard]] std::optional<detect::Session> open_trace_replay(
    const std::string& path, detect::SessionOptions opts,
    std::string* error = nullptr);

}  // namespace dynsub::harness
