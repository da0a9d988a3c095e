#pragma once
// SLO tracking: rolling burn-rate windows over a request-latency objective.
//
// An SLO here is "kObjective (99%) of requests complete within the target
// latency" — e.g. 99% of interactive requests in 50 ms.  Each completed
// request is classified good (latency <= target) or bad (late, shed, or
// failed); the tracker buckets outcomes by time and reports, over a short
// and a long rolling window, the *burn rate*: the bad fraction divided by
// the error budget (1 - kObjective).  Burn rate 1.0 means the error budget
// is being consumed exactly as fast as it accrues; sustained burn > 1.0
// means the SLO will be violated.  Two windows (5 s and 60 s of 1 s
// buckets) is the standard multi-window alerting shape: the long window
// says the budget is really burning, the short window says it is burning
// *now* (so recovered incidents stop alerting quickly).
//
// The tracker is mutex-guarded — it is fed once per request completion,
// never from the row loop — and clocks are caller-supplied microsecond
// timestamps so tests and golden exports are deterministic.

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "telemetry/metrics.hpp"

namespace sysrle {

/// Rolling-window burn-rate tracker for one latency SLO.
class SloTracker {
 public:
  /// Fraction of requests that must be good (error budget = 1 - this).
  static constexpr double kObjective = 0.99;
  /// Time-bucket granularity of the rolling windows.
  static constexpr std::uint64_t kBucketWidthUs = 1'000'000;
  /// Window sizes, in buckets.
  static constexpr std::size_t kShortWindowBuckets = 5;
  static constexpr std::size_t kLongWindowBuckets = 60;

  /// `target_us` is the latency target: a request is "good" iff its
  /// latency_us <= target_us.
  explicit SloTracker(std::uint64_t target_us = 50'000)
      : target_us_(target_us) {}

  /// Records one completed request: good iff `latency_us <= target_us`.
  void record(std::uint64_t now_us, std::uint64_t latency_us);

  /// Records one request that consumed error budget regardless of latency
  /// (a typed shed, a failure — the client did not get a good answer).
  void record_breach(std::uint64_t now_us);

  /// One window's view at `now_us`.
  struct Burn {
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
    double bad_fraction = 0.0;  ///< bad / total (0 when total == 0)
    double burn_rate = 0.0;     ///< bad_fraction / (1 - kObjective)
  };

  Burn short_window(std::uint64_t now_us) const;
  Burn long_window(std::uint64_t now_us) const;

  /// Lifetime totals (not windowed).
  std::uint64_t total() const;
  std::uint64_t bad() const;

  std::uint64_t target_us() const { return target_us_; }

  /// Publishes the current windows as gauges on `registry`:
  ///   <prefix>.target_us, <prefix>.objective,
  ///   <prefix>.burn_rate_short, <prefix>.burn_rate_long,
  ///   <prefix>.bad_fraction_short, <prefix>.bad_fraction_long,
  ///   <prefix>.good_total, <prefix>.bad_total
  void export_gauges(MetricsRegistry& registry, std::uint64_t now_us,
                     const std::string& prefix = "slo.interactive") const;

 private:
  struct Bucket {
    std::uint64_t index = 0;  ///< now_us / kBucketWidthUs, 1-based epoch
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };

  // Returns the live bucket for `now_us`, recycling the ring slot if it
  // holds an older epoch.  Caller holds mu_.
  Bucket& bucket_for_locked(std::uint64_t now_us);
  Burn window_locked(std::uint64_t now_us, std::size_t buckets) const;

  std::uint64_t target_us_;
  mutable std::mutex mu_;
  std::array<Bucket, kLongWindowBuckets> ring_{};  ///< slot = index % size
  std::uint64_t total_ = 0;
  std::uint64_t bad_ = 0;
};

}  // namespace sysrle
