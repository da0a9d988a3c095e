#include "telemetry/slo.hpp"

namespace sysrle {

SloTracker::Bucket& SloTracker::bucket_for_locked(std::uint64_t now_us) {
  // 1-based epochs so index 0 unambiguously means "slot never used".
  const std::uint64_t index = now_us / kBucketWidthUs + 1;
  Bucket& b = ring_[index % ring_.size()];
  if (b.index != index) b = Bucket{index, 0, 0};
  return b;
}

void SloTracker::record(std::uint64_t now_us, std::uint64_t latency_us) {
  const bool bad = latency_us > target_us_;
  const std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = bucket_for_locked(now_us);
  ++b.total;
  ++total_;
  if (bad) {
    ++b.bad;
    ++bad_;
  }
}

void SloTracker::record_breach(std::uint64_t now_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = bucket_for_locked(now_us);
  ++b.total;
  ++b.bad;
  ++total_;
  ++bad_;
}

SloTracker::Burn SloTracker::window_locked(std::uint64_t now_us,
                                           std::size_t buckets) const {
  const std::uint64_t newest = now_us / kBucketWidthUs + 1;
  const std::uint64_t oldest =
      newest >= buckets ? newest - buckets + 1 : 1;
  Burn burn;
  for (const Bucket& b : ring_) {
    if (b.index < oldest || b.index > newest) continue;  // stale or unused
    burn.total += b.total;
    burn.bad += b.bad;
  }
  if (burn.total > 0) {
    burn.bad_fraction =
        static_cast<double>(burn.bad) / static_cast<double>(burn.total);
    burn.burn_rate = burn.bad_fraction / (1.0 - kObjective);
  }
  return burn;
}

SloTracker::Burn SloTracker::short_window(std::uint64_t now_us) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return window_locked(now_us, kShortWindowBuckets);
}

SloTracker::Burn SloTracker::long_window(std::uint64_t now_us) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return window_locked(now_us, kLongWindowBuckets);
}

std::uint64_t SloTracker::total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t SloTracker::bad() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bad_;
}

void SloTracker::export_gauges(MetricsRegistry& registry, std::uint64_t now_us,
                               const std::string& prefix) const {
  const Burn s = short_window(now_us);
  const Burn l = long_window(now_us);
  std::uint64_t tot = 0, bad = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tot = total_;
    bad = bad_;
  }
  registry.set_gauge(prefix + ".target_us", static_cast<double>(target_us_));
  registry.set_gauge(prefix + ".objective", kObjective);
  registry.set_gauge(prefix + ".burn_rate_short", s.burn_rate);
  registry.set_gauge(prefix + ".burn_rate_long", l.burn_rate);
  registry.set_gauge(prefix + ".bad_fraction_short", s.bad_fraction);
  registry.set_gauge(prefix + ".bad_fraction_long", l.bad_fraction);
  registry.set_gauge(prefix + ".good_total", static_cast<double>(tot - bad));
  registry.set_gauge(prefix + ".bad_total", static_cast<double>(bad));
}

}  // namespace sysrle
