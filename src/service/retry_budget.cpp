#include "service/retry_budget.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

RetryBudget::RetryBudget(RetryBudgetConfig config)
    : config_(config), tokens_value_(config.initial_tokens) {
  SYSRLE_REQUIRE(config_.max_tokens >= 0.0 && config_.initial_tokens >= 0.0,
                 "RetryBudget: token counts must be >= 0");
  SYSRLE_REQUIRE(config_.cost_per_retry > 0.0,
                 "RetryBudget: cost_per_retry must be > 0");
  tokens_value_ = std::min(tokens_value_, config_.max_tokens);
}

bool RetryBudget::try_spend() {
  std::lock_guard<std::mutex> lk(mu_);
  if (tokens_value_ + 1e-9 < config_.cost_per_retry) {
    ++exhausted_;
    if (telemetry_enabled())
      global_metrics().add("service.retry_budget_exhausted_total");
    return false;
  }
  tokens_value_ -= config_.cost_per_retry;
  return true;
}

void RetryBudget::record_success() {
  std::lock_guard<std::mutex> lk(mu_);
  tokens_value_ =
      std::min(config_.max_tokens, tokens_value_ + config_.tokens_per_success);
}

void RetryBudget::refund() {
  std::lock_guard<std::mutex> lk(mu_);
  tokens_value_ =
      std::min(config_.max_tokens, tokens_value_ + config_.cost_per_retry);
}

double RetryBudget::tokens() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tokens_value_;
}

std::uint64_t RetryBudget::exhausted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return exhausted_;
}

std::uint64_t backoff_delay_us(const BackoffPolicy& policy, int retry_index,
                               Rng& rng) {
  SYSRLE_REQUIRE(retry_index >= 0, "backoff_delay_us: negative retry index");
  SYSRLE_REQUIRE(policy.jitter >= 0.0 && policy.jitter <= 1.0,
                 "backoff_delay_us: jitter must be in [0, 1]");
  double delay = static_cast<double>(policy.base_us) *
                 std::pow(policy.multiplier, retry_index);
  delay = std::min(delay, static_cast<double>(policy.cap_us));
  const double scale = 1.0 - policy.jitter + policy.jitter * rng.uniform01();
  return static_cast<std::uint64_t>(delay * scale);
}

}  // namespace sysrle
