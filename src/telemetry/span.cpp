#include "telemetry/span.hpp"

#include <algorithm>
#include <atomic>

#include "telemetry/telemetry.hpp"

namespace sysrle {

std::uint32_t current_thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

SpanTracer::SpanTracer(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), capacity_(capacity) {}

void SpanTracer::push(SpanEvent event) {
  event.tid = current_thread_ordinal();
  event.ctx = current_request_context();
  const std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

void SpanTracer::record(const char* name, const char* category,
                        std::uint64_t ts_us, std::uint64_t dur_us) {
  SpanEvent e;
  e.name = name;
  e.category = category;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  push(e);
}

std::vector<SpanEvent> SpanTracer::snapshot() const {
  std::vector<SpanEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = events_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  return out;
}

std::uint64_t SpanTracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t SpanTracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void SpanTracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

std::uint64_t SpanTracer::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

TelemetrySpan::TelemetrySpan(const char* name, const char* category)
    : name_(name), category_(category) {
  if (!telemetry_enabled()) return;
  active_ = true;
  start_us_ = global_tracer().now_us();
}

TelemetrySpan::~TelemetrySpan() {
  if (!active_ || !telemetry_enabled()) return;
  SpanTracer& tracer = global_tracer();
  const std::uint64_t end_us = tracer.now_us();
  const std::uint64_t dur = end_us >= start_us_ ? end_us - start_us_ : 0;
  tracer.record(name_, category_, start_us_, dur);
}

}  // namespace sysrle
