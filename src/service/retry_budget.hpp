#pragma once
// Token-bucket retry budget and jittered exponential backoff.
//
// checked_diff retries a faulty row a fixed N times — right for one machine,
// wrong for a fleet under overload: if 10% of rows start failing, blind
// retries multiply offered load exactly when there is no headroom (the
// retry-storm amplification every large service learns the hard way).  The
// budget makes retries a shared, earned resource: completed work earns
// fractional tokens, each retry spends one, and when the bucket is empty the
// checked engine goes straight to its sequential fallback.  Backoff delays
// are exponential with deterministic seeded jitter (workload/rng), so two
// runs with the same seed are byte-identical — the reproducibility rule of
// docs/TESTING.md.

#include <cstdint>
#include <mutex>

#include "workload/rng.hpp"

namespace sysrle {

/// Bucket shape.  Defaults allow short failure bursts (8 retries) and a
/// sustained retry rate of 10% of successful work.
struct RetryBudgetConfig {
  double initial_tokens = 8.0;
  double max_tokens = 8.0;
  /// Earned per recorded success; 0.1 = "retries may be 10% of successes".
  double tokens_per_success = 0.1;
  double cost_per_retry = 1.0;
};

/// Thread-safe token bucket shared by every request of a service.
class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetConfig config = {});

  /// Spends one retry's worth of tokens; false (and counts the exhaustion,
  /// publishing "service.retry_budget_exhausted_total") when the bucket
  /// cannot cover it.
  bool try_spend();

  /// Earns tokens_per_success, capped at max_tokens.
  void record_success();

  /// Returns one retry's worth of tokens (capped at max_tokens) when a
  /// spent retry was never taken — e.g. the request's deadline expired
  /// during the backoff sleep.  Does not undo the exhausted count.
  void refund();

  double tokens() const;
  std::uint64_t exhausted() const;  ///< denied try_spend calls so far

 private:
  RetryBudgetConfig config_;
  mutable std::mutex mu_;
  double tokens_value_;
  std::uint64_t exhausted_ = 0;
};

/// Exponential backoff shape: delay(i) = min(base * multiplier^i, cap),
/// then jittered to delay * (1 - jitter + jitter * u) with u ~ U[0,1) drawn
/// from a caller-owned seeded Rng.
struct BackoffPolicy {
  std::uint64_t base_us = 100;
  double multiplier = 2.0;
  std::uint64_t cap_us = 20000;
  /// Fraction of the delay that is randomized (0 = none, 1 = full jitter).
  double jitter = 0.5;
};

/// Delay before retry number `retry_index` (0-based).  Deterministic given
/// the Rng state; callers give each request its own split() Rng so the
/// jitter stream does not depend on thread interleaving.
std::uint64_t backoff_delay_us(const BackoffPolicy& policy, int retry_index,
                               Rng& rng);

}  // namespace sysrle
