#include "core/circuit_breaker.hpp"

#include <utility>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerPolicy policy, std::string metric_name)
    : policy_(policy), metric_name_(std::move(metric_name)) {
  SYSRLE_REQUIRE(policy_.failure_threshold >= 1,
                 "CircuitBreaker: failure_threshold must be >= 1");
  publish();
}

void CircuitBreaker::publish() const {
  if (metric_name_.empty() || !telemetry_enabled()) return;
  global_metrics().set_gauge("service.breaker_state." + metric_name_,
                             static_cast<double>(static_cast<int>(state_)));
}

void CircuitBreaker::transition(BreakerState next) {
  if (next == state_) return;
  state_ = next;
  ++transitions_;
  if (next == BreakerState::kClosed) consecutive_failures_ = 0;
  probing_ = false;
  if (!metric_name_.empty() && telemetry_enabled())
    global_metrics().add("service.breaker_transitions");
  publish();
}

bool CircuitBreaker::allow(std::uint64_t now) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now < opened_at_ + policy_.open_duration) return false;
      transition(BreakerState::kHalfOpen);
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      if (probing_) return false;
      probing_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::record_success(std::uint64_t) {
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kOpen:
      // A straggler finishing after the trip; the breaker stays open.
      break;
    case BreakerState::kHalfOpen:
      transition(BreakerState::kClosed);
      break;
  }
}

void CircuitBreaker::release_probe() { probing_ = false; }

void CircuitBreaker::record_failure(std::uint64_t now) {
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= policy_.failure_threshold) {
        opened_at_ = now;
        transition(BreakerState::kOpen);
      }
      break;
    case BreakerState::kOpen:
      break;
    case BreakerState::kHalfOpen:
      opened_at_ = now;
      transition(BreakerState::kOpen);
      break;
  }
}

}  // namespace sysrle
