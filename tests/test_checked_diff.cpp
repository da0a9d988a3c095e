// Tests for the fault-tolerant checked engine: clean rows pass through
// untouched, detected faults trigger retry then sequential fallback, and the
// accepted output always matches ground truth.

#include "core/checked_diff.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "rle/ops.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using sysrle::testing::random_row;
using sysrle::testing::reference_xor;

const RleRow kImg1{{10, 3}, {16, 2}, {23, 2}, {27, 3}};
const RleRow kImg2{{3, 4}, {8, 5}, {15, 5}, {23, 2}, {27, 4}};

TEST(CheckedDiff, HealthyRowIsCleanFirstTry) {
  const CheckedRowResult r = checked_xor(kImg1, kImg2, false);
  EXPECT_EQ(r.record.outcome, RecoveryOutcome::kCleanFirstTry);
  EXPECT_TRUE(r.record.ok());
  EXPECT_FALSE(r.record.faulty());
  EXPECT_EQ(r.record.retries(), 0u);
  EXPECT_EQ(r.record.attempts.size(), 1u);
  EXPECT_EQ(r.output.canonical(), xor_rows(kImg1, kImg2).canonical());
  // Theorem 1: the clean run fits the k1+k2 budget, so no watchdog fired.
  EXPECT_LE(r.record.total_cycles,
            static_cast<cycle_t>(kImg1.run_count() + kImg2.run_count()));
}

TEST(CheckedDiff, EmptyRowsAreClean) {
  const CheckedRowResult r = checked_xor(RleRow{}, RleRow{}, false);
  EXPECT_EQ(r.record.outcome, RecoveryOutcome::kCleanFirstTry);
  EXPECT_TRUE(r.output.empty());
}

TEST(CheckedDiff, PermanentFaultFallsBackWithCorrectOutput) {
  FaultSpec spec;
  spec.kind = FaultKind::kNoSwap;
  spec.cell = 0;  // always-detected on the Figure-1 pair
  FaultInjection injection;
  injection.spec = &spec;
  const CheckedRowResult r = checked_xor(kImg1, kImg2, false, {}, injection);
  EXPECT_EQ(r.record.outcome, RecoveryOutcome::kFellBack);
  EXPECT_TRUE(r.record.faulty());
  EXPECT_EQ(r.record.attempts.size(), 3u);  // 1 try + 2 retries, all detected
  EXPECT_GT(r.record.fallback_iterations, 0u);
  EXPECT_EQ(r.output.canonical(), xor_rows(kImg1, kImg2).canonical());
  for (const AttemptRecord& a : r.record.attempts) {
    EXPECT_TRUE(a.detected || a.timed_out);
    EXPECT_FALSE(a.diagnostic.empty());
  }
}

TEST(CheckedDiff, TransientFaultRecoversByRetry) {
  // Glitch alive only during the first attempt's cycles: the retry runs on
  // a healthy machine because the arbiter's clock is global.
  FaultSpec spec;
  spec.kind = FaultKind::kNoSwap;
  spec.cell = 0;
  spec.activation = FaultActivation::kTransient;
  spec.window_start = 1;
  spec.window_length = 1;
  FaultInjection injection;
  injection.spec = &spec;
  const CheckedRowResult r = checked_xor(kImg1, kImg2, false, {}, injection);
  EXPECT_EQ(r.record.outcome, RecoveryOutcome::kRecoveredByRetry);
  EXPECT_TRUE(r.record.faulty());
  EXPECT_EQ(r.record.retries(), 1u);
  EXPECT_EQ(r.output.canonical(), xor_rows(kImg1, kImg2).canonical());
}

TEST(CheckedDiff, IntermittentFaultRecoversOrFallsBackCorrectly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FaultSpec spec;
    spec.kind = FaultKind::kCorruptXorEnd;
    spec.cell = 1;
    spec.activation = FaultActivation::kIntermittent;
    spec.probability = 0.7;
    spec.seed = seed;
    FaultInjection injection;
    injection.spec = &spec;
    const CheckedRowResult r =
        checked_xor(kImg1, kImg2, false, {}, injection);
    ASSERT_TRUE(r.record.ok()) << "seed " << seed;
    ASSERT_EQ(r.output.canonical(), xor_rows(kImg1, kImg2).canonical())
        << "seed " << seed << " outcome " << to_string(r.record.outcome);
  }
}

TEST(CheckedDiff, FallbackDisabledReportsUnrecovered) {
  FaultSpec spec;
  spec.kind = FaultKind::kNoSwap;
  spec.cell = 0;
  FaultInjection injection;
  injection.spec = &spec;
  RecoveryPolicy policy;
  policy.fallback_to_sequential = false;
  policy.max_retries = 1;
  const CheckedRowResult r =
      checked_xor(kImg1, kImg2, false, policy, injection);
  EXPECT_EQ(r.record.outcome, RecoveryOutcome::kUnrecovered);
  EXPECT_FALSE(r.record.ok());
  EXPECT_TRUE(r.output.empty());
  EXPECT_EQ(r.record.attempts.size(), 2u);
}

TEST(CheckedDiff, ZeroRetriesGoesStraightToFallback) {
  FaultSpec spec;
  spec.kind = FaultKind::kDropShift;
  spec.cell = 3;
  FaultInjection injection;
  injection.spec = &spec;
  RecoveryPolicy policy;
  policy.max_retries = 0;
  const CheckedRowResult r =
      checked_xor(kImg1, kImg2, false, policy, injection);
  EXPECT_EQ(r.record.outcome, RecoveryOutcome::kFellBack);
  EXPECT_EQ(r.record.attempts.size(), 1u);
  EXPECT_EQ(r.output.canonical(), xor_rows(kImg1, kImg2).canonical());
}

TEST(CheckedDiff, NegativeMaxRetriesRejected) {
  RecoveryPolicy policy;
  policy.max_retries = -1;
  EXPECT_THROW(checked_xor(kImg1, kImg2, false, policy), contract_error);
}

TEST(CheckedDiff, CanonicalizeOptionAppliesToBothPaths) {
  const CheckedRowResult clean = checked_xor(kImg1, kImg2, true);
  EXPECT_TRUE(clean.output.is_canonical());

  FaultSpec spec;
  spec.kind = FaultKind::kNoSwap;
  spec.cell = 0;
  FaultInjection injection;
  injection.spec = &spec;
  const CheckedRowResult fell = checked_xor(kImg1, kImg2, true, {}, injection);
  EXPECT_EQ(fell.record.outcome, RecoveryOutcome::kFellBack);
  EXPECT_TRUE(fell.output.is_canonical());
}

TEST(CheckedDiff, NoFalsePositivesOnRandomRows) {
  // The checkers must never cry wolf on a healthy machine: 200 random row
  // pairs, all clean first try, all matching the independent reference.
  Rng rng(909);
  const pos_t width = 400;
  for (int trial = 0; trial < 200; ++trial) {
    const RleRow a = random_row(rng, width, 0.3);
    const RleRow b = random_row(rng, width, 0.3);
    const CheckedRowResult r = checked_xor(a, b, false);
    ASSERT_EQ(r.record.outcome, RecoveryOutcome::kCleanFirstTry) << trial;
    ASSERT_EQ(r.output.canonical(), reference_xor(a, b, width)) << trial;
  }
}

TEST(CheckedDiff, OutcomeNamesAreDistinct) {
  EXPECT_STRNE(to_string(RecoveryOutcome::kCleanFirstTry),
               to_string(RecoveryOutcome::kRecoveredByRetry));
  EXPECT_STRNE(to_string(RecoveryOutcome::kFellBack),
               to_string(RecoveryOutcome::kUnrecovered));
}

}  // namespace
}  // namespace sysrle
