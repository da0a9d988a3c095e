#pragma once
// Validation of untrusted run sequences (file input, hand-written fixtures,
// simulator output) before they are wrapped in RleRow.  RleRow itself
// enforces the core invariants on construction; this module produces a
// detailed report instead of throwing on first failure.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rle/run.hpp"

namespace sysrle {

/// A specific defect found in a run sequence.
enum class RowIssue {
  kNonPositiveLength,  ///< run length < 1
  kNegativeStart,      ///< run start < 0
  kOutOfOrder,         ///< start does not strictly increase
  kOverlap,            ///< run overlaps the previous run
  kExceedsWidth,       ///< run extends past width-1
  kNotCanonical,       ///< run is adjacent to the previous run
};

/// Human-readable name of an issue kind.
std::string to_string(RowIssue issue);

/// One finding: which issue at which run index.
struct RowFinding {
  RowIssue issue;
  std::size_t run_index;
};

/// Result of validating a run sequence.
struct RowValidationReport {
  std::vector<RowFinding> findings;

  bool ok() const { return findings.empty(); }

  /// Multi-line summary, one finding per line; "ok" if clean.
  std::string to_string() const;
};

/// Options for validate_runs.
struct ValidateOptions {
  /// When >= 0, runs must fit within [0, width).
  pos_t width = -1;
  /// When true, adjacent runs are reported as kNotCanonical.
  bool require_canonical = false;
};

/// A run's closed end computed unsigned.  For start >= 0 and length >= 1
/// both fields are below 2^63, so the end is exact (no i64 overflow for a
/// start near the i64 maximum); for any other run the wrapped value is
/// harmless because run_ok has already refused the run.
constexpr std::uint64_t run_end_u64(const Run& r) {
  return static_cast<std::uint64_t>(r.start) +
         static_cast<std::uint64_t>(r.length) - 1;
}

/// The row invariant, one run at a time — its single definition, behind
/// validate_runs and RleRow's own checks: `r` has start >= 0 and
/// length >= 1 and starts at or after `next_min`, the previous run's
/// run_end_u64 plus one (plus two when adjacency is refused).
constexpr bool run_ok(const Run& r, std::uint64_t next_min) {
  return (r.start >= 0) & (r.length >= 1) &
         (static_cast<std::uint64_t>(r.start) >= next_min);
}

/// Checks a raw run sequence against the RleRow invariants (and optionally
/// width / canonicality) and reports every violation.  A clean sequence is
/// accepted in one branch-free pass of run_ok.
RowValidationReport validate_runs(std::span<const Run> runs,
                                  const ValidateOptions& opts = {});

}  // namespace sysrle
