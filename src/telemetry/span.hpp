#pragma once
// Lightweight span tracing: RAII scopes that record (name, category, thread,
// start, duration) events into a bounded thread-safe buffer, exportable as a
// Chrome trace_event file (telemetry/exporters.hpp) that chrome://tracing
// and Perfetto load directly.
//
// Usage at an instrumentation site:
//
//   void hot_path() {
//     TELEMETRY_SPAN("row_diff");
//     ...
//   }
//
// The span checks the global enable flag in its constructor; when telemetry
// is disabled the scope never reads the clock.  Span names and categories
// must be string literals (or otherwise outlive the tracer) — the buffer
// stores the pointers, not copies.
//
// Every recorded span is annotated with the calling thread's RequestContext
// (telemetry/request_context.hpp) when one is active, so traces can be
// filtered down to a single serving request; per-request detail such as the
// shard and replica travels there, never in the name.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "telemetry/request_context.hpp"

namespace sysrle {

/// One completed span.  Timestamps are microseconds since the tracer epoch.
struct SpanEvent {
  const char* name = "";  ///< string literal
  const char* category = "";
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;

  /// Request annotation, copied from the recording thread's context.
  /// Inactive (`ctx.active == false`) for spans outside any request.
  RequestContext ctx;

  /// The span's display name.
  const char* label() const { return name; }
};

/// Small dense id for the calling thread (1, 2, 3, ... in order of first
/// use) — far more readable in a trace viewer than a hashed pthread id.
std::uint32_t current_thread_ordinal();

/// Bounded thread-safe buffer of completed spans.
class SpanTracer {
 public:
  /// `capacity` bounds memory; once full, new events are dropped and
  /// counted.  Traces are diagnostics — losing the tail beats unbounded
  /// growth inside an instrumented server.
  explicit SpanTracer(std::size_t capacity = 1 << 16);

  /// Records one completed span (thread-safe).  `name` must outlive the
  /// tracer (string literal).
  void record(const char* name, const char* category, std::uint64_t ts_us,
              std::uint64_t dur_us);

  /// Copies the buffered events, sorted by (ts_us, dur_us descending) so
  /// enclosing spans precede their children at equal timestamps.
  std::vector<SpanEvent> snapshot() const;

  /// Events rejected because the buffer was full.
  std::uint64_t dropped() const;

  /// Buffered event count.
  std::size_t size() const;

  /// Forgets all events (and the drop count).
  void clear();

  /// Microseconds since this tracer was constructed (its epoch).
  std::uint64_t now_us() const;

 private:
  void push(SpanEvent event);

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// RAII scope recording into the *global* tracer when telemetry is enabled.
/// Prefer the TELEMETRY_SPAN macro, which names the local variable for you.
class TelemetrySpan {
 public:
  explicit TelemetrySpan(const char* name, const char* category = "sysrle");
  ~TelemetrySpan();

  TelemetrySpan(const TelemetrySpan&) = delete;
  TelemetrySpan& operator=(const TelemetrySpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_us_ = 0;
  bool active_ = false;
};

#define SYSRLE_SPAN_CONCAT2(a, b) a##b
#define SYSRLE_SPAN_CONCAT(a, b) SYSRLE_SPAN_CONCAT2(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define TELEMETRY_SPAN(...) \
  ::sysrle::TelemetrySpan SYSRLE_SPAN_CONCAT(telemetry_span_, \
                                             __LINE__)(__VA_ARGS__)

}  // namespace sysrle
