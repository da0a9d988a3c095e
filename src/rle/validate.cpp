#include "rle/validate.hpp"

#include <cstdint>
#include <limits>
#include <sstream>

namespace sysrle {

std::string to_string(RowIssue issue) {
  switch (issue) {
    case RowIssue::kNonPositiveLength:
      return "non-positive length";
    case RowIssue::kNegativeStart:
      return "negative start";
    case RowIssue::kOutOfOrder:
      return "out of order";
    case RowIssue::kOverlap:
      return "overlap";
    case RowIssue::kExceedsWidth:
      return "exceeds width";
    case RowIssue::kNotCanonical:
      return "not canonical (adjacent runs)";
  }
  return "unknown";
}

std::string RowValidationReport::to_string() const {
  if (findings.empty()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i) os << '\n';
    os << "run #" << findings[i].run_index << ": "
       << sysrle::to_string(findings[i].issue);
  }
  return os.str();
}

namespace {

/// True when validate_runs would find nothing, in one branch-free pass:
/// run_ok for every run, and every end below the width when one is given.
bool all_ok(std::span<const Run> runs, const ValidateOptions& opts) {
  using u64 = std::uint64_t;
  const u64 limit = opts.width >= 0 ? static_cast<u64>(opts.width)
                                    : std::numeric_limits<u64>::max();
  const u64 gap = opts.require_canonical ? 2 : 1;
  u64 next_min = 0;
  bool bad = false;
  for (const Run& r : runs) {
    bad |= !run_ok(r, next_min) | (run_end_u64(r) >= limit);
    next_min = run_end_u64(r) + gap;
  }
  return !bad;
}

}  // namespace

RowValidationReport validate_runs(std::span<const Run> runs,
                                  const ValidateOptions& opts) {
  if (all_ok(runs, opts)) return {};
  // r.end() for a run of length >= 1, saturated at the largest position
  // instead of overflowing on hostile input (a start near the i64 maximum).
  // Saturation keeps every comparison below exact: a true end past the
  // maximum compares like the maximum against any valid position.
  const auto saturated_end = [](const Run& r) {
    constexpr pos_t kMax = std::numeric_limits<pos_t>::max();
    return r.start > kMax - (r.length - 1) ? kMax : r.start + (r.length - 1);
  };
  RowValidationReport report;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    if (r.length < 1)
      report.findings.push_back({RowIssue::kNonPositiveLength, i});
    if (r.start < 0) report.findings.push_back({RowIssue::kNegativeStart, i});
    if (opts.width >= 0 && r.length >= 1 && saturated_end(r) >= opts.width)
      report.findings.push_back({RowIssue::kExceedsWidth, i});
    if (i > 0 && r.length >= 1 && runs[i - 1].length >= 1) {
      const Run& prev = runs[i - 1];
      const pos_t prev_end = saturated_end(prev);
      if (r.start <= prev.start) {
        report.findings.push_back({RowIssue::kOutOfOrder, i});
      } else if (prev_end >= r.start) {
        report.findings.push_back({RowIssue::kOverlap, i});
      } else if (opts.require_canonical && prev_end + 1 == r.start) {
        // prev_end < r.start here, so the increment cannot overflow.
        report.findings.push_back({RowIssue::kNotCanonical, i});
      }
    }
  }
  return report;
}

}  // namespace sysrle
