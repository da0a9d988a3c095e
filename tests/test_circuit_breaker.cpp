// Tests for the three-state circuit breaker (closed -> open -> half-open).

#include "core/circuit_breaker.hpp"

#include <gtest/gtest.h>

#include "telemetry/telemetry.hpp"

namespace sysrle {
namespace {

BreakerPolicy policy(int threshold, std::uint64_t open_duration) {
  BreakerPolicy p;
  p.failure_threshold = threshold;
  p.open_duration = open_duration;
  return p;
}

TEST(CircuitBreaker, StartsClosedAndAdmitsEverything) {
  CircuitBreaker b(policy(3, 100));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  for (std::uint64_t t = 0; t < 10; ++t) EXPECT_TRUE(b.allow(t));
  EXPECT_EQ(b.transitions(), 0u);
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker b(policy(3, 100));
  b.record_failure(1);
  b.record_failure(2);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.consecutive_failures(), 2);
  b.record_failure(3);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow(4));
  EXPECT_FALSE(b.allow(102));  // window is [3, 103)
  EXPECT_EQ(b.reopen_at(), 103u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker b(policy(3, 100));
  b.record_failure(1);
  b.record_failure(2);
  b.record_success(3);
  EXPECT_EQ(b.consecutive_failures(), 0);
  b.record_failure(4);
  b.record_failure(5);
  EXPECT_EQ(b.state(), BreakerState::kClosed);  // streak restarted
  b.record_failure(6);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

TEST(CircuitBreaker, HalfOpenAdmitsLimitedProbesAfterTheWindow) {
  CircuitBreaker b(policy(1, 50));
  b.record_failure(10);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow(59));
  EXPECT_TRUE(b.allow(60));  // window elapsed: the one probe
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  // A second allow() while that probe is in flight is refused, however
  // late it comes...
  EXPECT_FALSE(b.allow(61));
  EXPECT_FALSE(b.allow(1000));
  // ...until release_probe hands the slot back: then exactly one more.
  b.release_probe();
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.allow(1001));
  EXPECT_FALSE(b.allow(1002));
}

TEST(CircuitBreaker, ProbeSuccessesCloseTheBreaker) {
  CircuitBreaker b(policy(1, 50));
  b.record_failure(0);
  ASSERT_TRUE(b.allow(50));
  b.record_success(55);  // the one probe's success closes
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allow(56));
  EXPECT_TRUE(b.allow(57));  // closed: no probe limit
}

TEST(CircuitBreaker, ProbeFailureReopensImmediately) {
  CircuitBreaker b(policy(1, 50));
  b.record_failure(0);
  ASSERT_TRUE(b.allow(50));
  b.record_failure(55);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow(56));
  // The new window starts at the probe failure, not the original trip.
  EXPECT_EQ(b.reopen_at(), 105u);
  EXPECT_TRUE(b.allow(105));
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, ReleaseProbeFreesAnAbandonedHalfOpenSlot) {
  CircuitBreaker b(policy(1, 50));
  b.record_failure(0);
  ASSERT_TRUE(b.allow(50));  // the only probe slot
  EXPECT_FALSE(b.allow(51));
  // The probe was shed before the backend ran (queue full / deadline):
  // releasing the slot re-admits a fresh probe instead of wedging half-open.
  b.release_probe();
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);  // no outcome recorded
  EXPECT_TRUE(b.allow(52));
  b.record_success(53);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ReleaseProbeIsANoOpOutsideHalfOpen) {
  CircuitBreaker b(policy(1, 50));
  b.release_probe();  // closed: nothing to release
  EXPECT_TRUE(b.allow(1));
  b.record_failure(2);
  b.release_probe();  // open: nothing to release
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow(3));
}

TEST(CircuitBreaker, FullRecoveryCycleCountsTransitions) {
  CircuitBreaker b(policy(2, 10));
  b.record_failure(1);
  b.record_failure(2);               // closed -> open
  ASSERT_TRUE(b.allow(12));          // open -> half-open
  b.record_success(13);              // half-open -> closed
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.transitions(), 3u);
}

TEST(CircuitBreaker, PublishesStateGaugeWhenNamed) {
  reset_telemetry();
  set_telemetry_enabled(true);
  CircuitBreaker b(policy(1, 10), "unit");
  b.record_failure(1);
  const MetricsSnapshot open_snap = global_metrics().snapshot();
  EXPECT_EQ(open_snap.gauge("service.breaker_state.unit", -1.0),
            static_cast<double>(BreakerState::kOpen));
  ASSERT_TRUE(b.allow(11));
  b.record_success(12);
  const MetricsSnapshot closed_snap = global_metrics().snapshot();
  EXPECT_EQ(closed_snap.gauge("service.breaker_state.unit", -1.0),
            static_cast<double>(BreakerState::kClosed));
  EXPECT_GE(closed_snap.counter("service.breaker_transitions"), 3u);
  set_telemetry_enabled(false);
  reset_telemetry();
}

TEST(CircuitBreaker, ToStringNamesEveryState) {
  EXPECT_STREQ(to_string(BreakerState::kClosed), "closed");
  EXPECT_STREQ(to_string(BreakerState::kOpen), "open");
  EXPECT_STREQ(to_string(BreakerState::kHalfOpen), "half_open");
}

}  // namespace
}  // namespace sysrle
