// Tests for the SLO tracker: good/bad classification against the latency
// target, breach recording, rolling-window roll-off and ring recycling,
// burn-rate arithmetic, and the gauge export.  Every test runs on the real
// windows (1 s buckets, 5-bucket short and 60-bucket long window, 0.99
// objective), driven by the explicit `now_us` each call takes.

#include "telemetry/slo.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "telemetry/metrics.hpp"

namespace sysrle {
namespace {

constexpr std::uint64_t kSecondUs = SloTracker::kBucketWidthUs;

TEST(SloTracker, ClassifiesAgainstTheLatencyTarget) {
  SloTracker slo(1000);
  slo.record(10, 1000);  // exactly at target: good
  slo.record(20, 999);   // good
  slo.record(30, 1001);  // late: bad
  EXPECT_EQ(slo.total(), 3u);
  EXPECT_EQ(slo.bad(), 1u);

  const SloTracker::Burn b = slo.short_window(30);
  EXPECT_EQ(b.total, 3u);
  EXPECT_EQ(b.bad, 1u);
  EXPECT_NEAR(b.bad_fraction, 1.0 / 3.0, 1e-12);
}

TEST(SloTracker, BreachConsumesBudgetRegardlessOfLatency) {
  SloTracker slo(1000);
  slo.record_breach(10);
  slo.record_breach(20);
  EXPECT_EQ(slo.total(), 2u);
  EXPECT_EQ(slo.bad(), 2u);
  EXPECT_DOUBLE_EQ(slo.short_window(20).bad_fraction, 1.0);
}

TEST(SloTracker, BurnRateIsBadFractionOverErrorBudget) {
  SloTracker slo(1000);
  // 100 requests, 2 bad: bad_fraction 0.02, budget 0.01 -> burn rate 2.0.
  for (int i = 0; i < 98; ++i) slo.record(100, 10);
  slo.record_breach(100);
  slo.record(100, 5000);
  const SloTracker::Burn b = slo.long_window(100);
  EXPECT_EQ(b.total, 100u);
  EXPECT_EQ(b.bad, 2u);
  EXPECT_NEAR(b.bad_fraction, 0.02, 1e-12);
  EXPECT_NEAR(b.burn_rate, 2.0, 1e-9);
}

TEST(SloTracker, EmptyWindowsReportZero) {
  SloTracker slo(1000);
  const SloTracker::Burn b = slo.short_window(0);
  EXPECT_EQ(b.total, 0u);
  EXPECT_DOUBLE_EQ(b.bad_fraction, 0.0);
  EXPECT_DOUBLE_EQ(b.burn_rate, 0.0);
}

TEST(SloTracker, WindowsRollOffOldBuckets) {
  SloTracker slo(1000);
  slo.record_breach(kSecondUs / 2);  // bucket epoch 1

  // Still inside both windows at the short window's last bucket.
  EXPECT_EQ(slo.short_window(4 * kSecondUs + 1).bad, 1u);
  EXPECT_EQ(slo.long_window(4 * kSecondUs + 1).bad, 1u);

  // Five buckets on, the short window has rolled past it; the long has not.
  EXPECT_EQ(slo.short_window(5 * kSecondUs).bad, 0u);
  EXPECT_EQ(slo.long_window(5 * kSecondUs).bad, 1u);
  EXPECT_EQ(slo.long_window(59 * kSecondUs + 1).bad, 1u);

  // Past the long window too.
  EXPECT_EQ(slo.long_window(60 * kSecondUs).bad, 0u);
  // Lifetime totals never roll off.
  EXPECT_EQ(slo.total(), 1u);
  EXPECT_EQ(slo.bad(), 1u);
}

TEST(SloTracker, RingSlotsRecycleAcrossEpochs) {
  SloTracker slo(1000);  // ring of 60 one-second slots
  slo.record(kSecondUs / 2, 1);                // epoch 1
  slo.record_breach(60 * kSecondUs + 500);     // epoch 61: epoch 1's slot
  const SloTracker::Burn b = slo.long_window(60 * kSecondUs + 500);
  EXPECT_EQ(b.total, 1u) << "the recycled slot must not leak epoch 1 counts";
  EXPECT_EQ(b.bad, 1u);
  EXPECT_EQ(slo.total(), 2u);
}

TEST(SloTracker, DefaultConfigIsInteractiveP99FiftyMs) {
  SloTracker slo;
  EXPECT_EQ(slo.target_us(), 50'000u);
  EXPECT_DOUBLE_EQ(SloTracker::kObjective, 0.99);
  EXPECT_EQ(SloTracker::kBucketWidthUs, 1'000'000u);
  EXPECT_EQ(SloTracker::kShortWindowBuckets, 5u);
  EXPECT_EQ(SloTracker::kLongWindowBuckets, 60u);
  slo.record(0, 50'000);
  slo.record(0, 50'001);
  EXPECT_EQ(slo.bad(), 1u);
}

TEST(SloTracker, ExportGaugesPublishesWindowsAndTotals) {
  SloTracker slo(1000);
  // 100 requests in the newest bucket, 1 bad: burn rate 1.0 in both
  // windows.  An older breach 10 s back counts only in the long window.
  slo.record_breach(kSecondUs / 2);
  for (int i = 0; i < 99; ++i) slo.record(10 * kSecondUs, 10);
  slo.record_breach(10 * kSecondUs);

  MetricsRegistry registry;
  slo.export_gauges(registry, 10 * kSecondUs, "slo.test");
  const MetricsSnapshot s = registry.snapshot();
  EXPECT_DOUBLE_EQ(s.gauge("slo.test.target_us"), 1000.0);
  EXPECT_DOUBLE_EQ(s.gauge("slo.test.objective"), 0.99);
  EXPECT_NEAR(s.gauge("slo.test.bad_fraction_short"), 0.01, 1e-12);
  EXPECT_NEAR(s.gauge("slo.test.burn_rate_short"), 1.0, 1e-9);
  EXPECT_NEAR(s.gauge("slo.test.bad_fraction_long"), 2.0 / 101.0, 1e-12);
  EXPECT_NEAR(s.gauge("slo.test.burn_rate_long"), 200.0 / 101.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.gauge("slo.test.good_total"), 99.0);
  EXPECT_DOUBLE_EQ(s.gauge("slo.test.bad_total"), 2.0);
}

}  // namespace
}  // namespace sysrle
