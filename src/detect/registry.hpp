// The detector registry: every dynamic subgraph structure under a stable
// name, symmetric to the scenario registry.
//
// Two kinds of entries:
//
//   * detectors -- the core structures of src/core/ and the baselines of
//                  src/baseline/, each with strict typed parameters in the
//                  scenario spec grammar (e.g. `triangle(k=4)`,
//                  `flood(radius=3)`, `robust3hop(l2=0)`),
//   * aliases   -- short names expanding to a parameterized spec
//                  (`flood2` == `flood(radius=2)`), kept for CLI
//                  compatibility and symmetry with scenario composites.
//
// build_detector() turns a spec string (or a bare registered name) into a
// ready-to-use detect::Detector.  Parameter parsing is typed and strict --
// the same Params reader the scenario registry uses -- so an unknown or
// malformed parameter is an error naming the offender, never a silent
// default.  Detector specs take no children (a detector is a leaf; composing
// detectors is a Session concern).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "detect/detector.hpp"
#include "scenario/spec.hpp"

namespace dynsub::detect {

enum class DetectorKind : std::uint8_t { kCore, kBaseline, kAlias };

struct DetectorCatalogEntry {
  std::string name;
  DetectorKind kind;
  ProblemKind problem;
  std::string summary;
  /// A runnable example spec (for aliases, the bare name).
  std::string example;
};

/// Every registered detector, sorted by (kind, name).
[[nodiscard]] const std::vector<DetectorCatalogEntry>& detector_catalog();

/// One line per registry entry ("name  -- summary (e.g. spec)"): the text
/// dynsub_run prints for --list and for an unknown --detector, so the valid
/// set is never duplicated by hand.
[[nodiscard]] std::string describe_detectors();

/// Builds a detector from a spec string or a bare registered name.
/// Returns nullptr (and sets `error` when given) on parse or parameter
/// errors.
[[nodiscard]] std::unique_ptr<Detector> build_detector(
    std::string_view spec_text, std::string* error = nullptr);

/// Builds from an already-parsed spec tree.
[[nodiscard]] std::unique_ptr<Detector> build_detector(
    const scenario::SpecNode& node, std::string* error = nullptr);

}  // namespace dynsub::detect
