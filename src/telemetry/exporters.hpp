#pragma once
// Exporters for the telemetry layer:
//   * a JSON metrics snapshot ("sysrle.metrics.v1" — counters, gauges,
//     histograms with moments, p50/p95/p99 and bucket counts), and
//   * a Chrome trace_event file (the object form with "traceEvents"),
//     loadable directly by chrome://tracing and Perfetto, and
//   * flight-recorder dumps ("sysrle.flight.v1"): a JSONL stream of ring
//     events and retained anomaly timelines, plus a Chrome trace rendering
//     with one lane per shard/replica.
//
// Schema versioning policy (docs/OBSERVABILITY.md): the "schema" string is
// bumped whenever a field is removed or changes meaning; adding fields is
// backward compatible and does not bump it.

#include <iosfwd>
#include <string>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace sysrle {

/// Schema identifier embedded in every metrics snapshot.
inline constexpr const char* kMetricsSchema = "sysrle.metrics.v1";

/// Schema identifier on the header line of every flight-recorder JSONL dump.
inline constexpr const char* kFlightSchema = "sysrle.flight.v1";

/// Writes the snapshot as indented JSON.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);
void write_metrics_json_file(const MetricsSnapshot& snapshot,
                             const std::string& path);

/// Writes the tracer's events as a Chrome trace.  Events are complete
/// ("ph":"X") events sorted by timestamp; a process-name metadata event and
/// a drop count ride along in "otherData".
void write_chrome_trace(const SpanTracer& tracer, std::ostream& out);
void write_chrome_trace_file(const SpanTracer& tracer,
                             const std::string& path);

/// Writes the recorder as JSONL ("sysrle.flight.v1"): one compact JSON
/// object per line.  Line 1 is a header ("type":"header") with the schema
/// and ring accounting; then every live ring event ("type":"event") in seq
/// order; then one line per retained anomaly timeline ("type":"retained")
/// carrying its events inline.  Grep-able and `json.loads`-able per line.
void write_flight_jsonl(const FlightRecorder& recorder, std::ostream& out);
void write_flight_jsonl_file(const FlightRecorder& recorder,
                             const std::string& path);

/// Writes the recorder as a Chrome trace: one instant event per flight
/// event, tracked per shard/replica, so a failover reads as the request
/// moving from one replica's lane to another's.
void write_flight_chrome_trace(const FlightRecorder& recorder,
                               std::ostream& out);
void write_flight_chrome_trace_file(const FlightRecorder& recorder,
                                    const std::string& path);

}  // namespace sysrle
