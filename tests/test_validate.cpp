// Tests for the untrusted run-sequence validator.

#include "rle/validate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "workload/rng.hpp"

namespace sysrle {
namespace {

using RunT = ::sysrle::Run;  // avoid collision with testing::Test::Run

TEST(Validate, CleanSequence) {
  const std::vector<RunT> runs{{0, 3}, {5, 2}, {10, 1}};
  const auto report = validate_runs(runs);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "ok");
}

TEST(Validate, EmptySequenceIsClean) {
  EXPECT_TRUE(validate_runs({}).ok());
}

TEST(Validate, FlagsNonPositiveLength) {
  const std::vector<RunT> runs{{0, 0}};
  const auto report = validate_runs(runs);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].issue, RowIssue::kNonPositiveLength);
  EXPECT_EQ(report.findings[0].run_index, 0u);
}

TEST(Validate, FlagsNegativeStart) {
  const std::vector<RunT> runs{{-2, 3}};
  const auto report = validate_runs(runs);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].issue, RowIssue::kNegativeStart);
}

TEST(Validate, FlagsOutOfOrder) {
  const std::vector<RunT> runs{{10, 2}, {5, 2}};
  const auto report = validate_runs(runs);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].issue, RowIssue::kOutOfOrder);
  EXPECT_EQ(report.findings[0].run_index, 1u);
}

TEST(Validate, FlagsOverlap) {
  const std::vector<RunT> runs{{5, 5}, {8, 2}};
  const auto report = validate_runs(runs);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].issue, RowIssue::kOverlap);
}

TEST(Validate, FlagsWidthViolation) {
  const std::vector<RunT> runs{{8, 4}};
  ValidateOptions opts;
  opts.width = 10;
  const auto report = validate_runs(runs, opts);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].issue, RowIssue::kExceedsWidth);
}

TEST(Validate, AdjacencyOnlyWhenCanonicalRequired) {
  const std::vector<RunT> runs{{0, 5}, {5, 2}};
  EXPECT_TRUE(validate_runs(runs).ok());
  ValidateOptions opts;
  opts.require_canonical = true;
  const auto report = validate_runs(runs, opts);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].issue, RowIssue::kNotCanonical);
}

TEST(Validate, ReportsMultipleFindings) {
  const std::vector<RunT> runs{{-1, 0}, {5, 2}, {4, 2}};
  const auto report = validate_runs(runs);
  EXPECT_GE(report.findings.size(), 3u);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string(), "ok");
}

TEST(Validate, IssueNamesAreDistinct) {
  EXPECT_NE(to_string(RowIssue::kOverlap), to_string(RowIssue::kOutOfOrder));
  EXPECT_NE(to_string(RowIssue::kNonPositiveLength),
            to_string(RowIssue::kNegativeStart));
}

__extension__ typedef __int128 Wide;

/// The RleRow invariants (plus width and canonicality) with ends computed in
/// 128 bits, so no i64 field value can overflow them.
bool reference_ok(std::span<const RunT> runs, const ValidateOptions& opts) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunT& r = runs[i];
    if (r.length < 1 || r.start < 0) return false;
    const Wide end = Wide{r.start} + r.length - 1;
    if (opts.width >= 0 && end >= opts.width) return false;
    if (i > 0) {
      const Wide prev_end = Wide{runs[i - 1].start} + runs[i - 1].length - 1;
      if (Wide{r.start} <= prev_end + (opts.require_canonical ? 1 : 0))
        return false;
    }
  }
  return true;
}

/// Checks validate_runs against the reference under every option mix: no
/// width, width 0, the exact fit (last end + 1) and one less, each with
/// canonicality required and not.
void expect_agrees(const std::vector<RunT>& runs) {
  std::vector<pos_t> widths{-1, 0};
  if (!runs.empty()) {
    const Wide fit = Wide{runs.back().start} + runs.back().length;
    if (fit > 0 && fit <= std::numeric_limits<pos_t>::max()) {
      widths.push_back(static_cast<pos_t>(fit));
      widths.push_back(static_cast<pos_t>(fit - 1));
    }
  }
  for (const pos_t width : widths) {
    for (const bool canonical : {false, true}) {
      ValidateOptions opts;
      opts.width = width;
      opts.require_canonical = canonical;
      const RowValidationReport report = validate_runs(runs, opts);
      std::string row;
      for (const RunT& r : runs) row += r.to_string();
      EXPECT_EQ(report.ok(), reference_ok(runs, opts))
          << row << " width " << width << " canonical " << canonical;
    }
  }
}

// validate_runs accepts through a branch-free pass and falls back to the
// detailed loop only when that pass finds something, so its verdict must be
// the reference's on every row: seeded random rows (mostly valid, some with
// one field perturbed) and hostile rows with i64 extremes.
TEST(Validate, FastAcceptAgreesWithDetailedFindings) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t extremes[] = {0, 1, -1, kMax, kMin, kMax - 1, kMin + 1};

  // Every one- and two-run row built from the extremes and small values.
  std::vector<std::int64_t> fields(std::begin(extremes), std::end(extremes));
  for (const std::int64_t v : {2, 3, 5}) fields.push_back(v);
  for (const std::int64_t s : fields)
    for (const std::int64_t l : fields) expect_agrees({{s, l}});
  for (const std::int64_t s0 : {0, 3, 5})
    for (const std::int64_t l0 : {1, 2, 3})
      for (const std::int64_t s1 : fields)
        for (const std::int64_t l1 : {std::int64_t{1}, std::int64_t{2}, kMax})
          expect_agrees({{s0, l0}, {s1, l1}});
  // Adjacent, overlapping and out-of-order pairs, and the same at the top of
  // the i64 range.
  expect_agrees({{0, 5}, {5, 2}});
  expect_agrees({{0, 5}, {6, 2}});
  expect_agrees({{0, 5}, {4, 2}});
  expect_agrees({{10, 2}, {5, 2}});
  expect_agrees({{5, 2}, {5, 2}});
  expect_agrees({{kMax - 4, 2}, {kMax - 2, 1}});
  expect_agrees({{kMax - 4, 2}, {kMax - 1, 2}});
  expect_agrees({{kMax - 1, 1}, {kMax, 1}});
  expect_agrees({{kMax, 1}, {kMax, 1}});
  expect_agrees({{kMin, kMax}, {0, 1}});

  // Random rows: strictly increasing runs with gaps of 0 (adjacent), 1 or 2,
  // then, in half of them, one small field replaced by an extreme or nudged
  // by up to 2 either way.
  Rng rng(1903);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::int64_t n = rng.uniform(0, 6);
    std::vector<RunT> runs;
    pos_t at = rng.uniform(0, 2);
    for (std::int64_t i = 0; i < n; ++i) {
      const len_t len = rng.uniform(1, 4);
      runs.emplace_back(at, len);
      at += len + rng.uniform(0, 2);
    }
    if (!runs.empty() && rng.bernoulli(0.5)) {
      RunT& victim = runs[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(runs.size()) - 1))];
      std::int64_t& field = rng.bernoulli(0.5) ? victim.start : victim.length;
      if (rng.bernoulli(0.3))
        field = extremes[rng.uniform(
            0, static_cast<std::int64_t>(std::size(extremes)) - 1)];
      else
        field += rng.uniform(-2, 2);
    }
    expect_agrees(runs);
  }
}

}  // namespace
}  // namespace sysrle
