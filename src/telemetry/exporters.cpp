#include "telemetry/exporters.hpp"

#include <fstream>
#include <ostream>

#include "common/assert.hpp"
#include "telemetry/json_writer.hpp"

namespace sysrle {

namespace {

void write_histogram(JsonWriter& w, const Histogram& h) {
  const RunningStat& s = h.stat();
  w.begin_object();
  w.member("count", static_cast<std::uint64_t>(s.count()));
  w.member("min", s.min());
  w.member("max", s.max());
  w.member("mean", s.mean());
  w.member("stddev", s.stddev());
  w.member("p50", s.p50());
  w.member("p95", s.p95());
  w.member("p99", s.p99());
  w.member("scale", h.spec().scale == HistogramSpec::Scale::kLog2 ? "log2"
                                                                  : "fixed");
  const std::vector<std::uint64_t>& buckets = h.buckets();
  // The full bucket layout, so consumers can reconstruct the distribution
  // (and know which buckets were empty) without re-deriving the spec.
  w.key("boundaries");
  w.begin_array();
  for (std::size_t i = 0; i < buckets.size(); ++i)
    w.value(h.bucket_upper(i));
  w.end_array();
  w.key("buckets");
  w.begin_array();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;  // sparse: empty buckets are implicit
    w.begin_object();
    w.member("le", h.bucket_upper(i));
    w.member("count", buckets[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.member("schema", kMetricsSchema);

  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snapshot.counters) w.member(name, value);
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snapshot.gauges) w.member(name, value);
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, histogram] : snapshot.histograms) {
    w.key(name);
    write_histogram(w, histogram);
  }
  w.end_object();

  w.end_object();
  out << '\n';
  SYSRLE_ENSURE(out.good(), "metrics export: write failed");
}

void write_metrics_json_file(const MetricsSnapshot& snapshot,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SYSRLE_REQUIRE(out.is_open(),
                 "metrics export: cannot open for write: " + path);
  write_metrics_json(snapshot, out);
}

void write_chrome_trace(const SpanTracer& tracer, std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  // Process-name metadata event, so trace viewers label the track.
  w.begin_object();
  w.member("name", "process_name");
  w.member("ph", "M");
  w.member("pid", 1);
  w.member("tid", 0);
  w.key("args");
  w.begin_object();
  w.member("name", "sysrle");
  w.end_object();
  w.end_object();

  for (const SpanEvent& e : tracer.snapshot()) {
    w.begin_object();
    w.member("name", e.label());
    w.member("cat", e.category);
    w.member("ph", "X");
    w.member("ts", e.ts_us);
    w.member("dur", e.dur_us);
    w.member("pid", 1);
    w.member("tid", static_cast<std::uint64_t>(e.tid));
    if (e.ctx.active) {
      w.key("args");
      w.begin_object();
      w.member("request_id", e.ctx.request_id);
      w.member("attempt", static_cast<std::uint64_t>(e.ctx.attempt));
      w.member("shard", static_cast<std::int64_t>(e.ctx.shard));
      w.member("replica", static_cast<std::int64_t>(e.ctx.replica));
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.member("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.member("schema", "sysrle.trace.v1");
  w.member("dropped_events", tracer.dropped());
  w.end_object();

  w.end_object();
  out << '\n';
  SYSRLE_ENSURE(out.good(), "trace export: write failed");
}

void write_chrome_trace_file(const SpanTracer& tracer,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SYSRLE_REQUIRE(out.is_open(), "trace export: cannot open for write: " + path);
  write_chrome_trace(tracer, out);
}

namespace {

// One compact JSON object for one flight event (no trailing newline).
void write_flight_event_fields(JsonWriter& w, const FlightEvent& e) {
  w.member("seq", e.seq);
  w.member("ts_us", e.ts_us);
  w.member("kind", to_string(e.kind));
  w.member("active", e.ctx.active);
  w.member("request_id", e.ctx.request_id);
  w.member("attempt", static_cast<std::uint64_t>(e.ctx.attempt));
  w.member("shard", static_cast<std::int64_t>(e.ctx.shard));
  w.member("replica", static_cast<std::int64_t>(e.ctx.replica));
  w.member("detail", e.detail);
  w.member("arg", e.arg);
}

// Track id for flight events in the Chrome rendering: one lane per
// (shard, replica), lane 0 for unrouted events.
std::uint64_t flight_tid(const RequestContext& ctx) {
  if (ctx.shard < 0) return 0;
  const std::uint64_t replica =
      ctx.replica < 0 ? 0 : static_cast<std::uint64_t>(ctx.replica);
  return static_cast<std::uint64_t>(ctx.shard) * 100 + replica + 1;
}

}  // namespace

void write_flight_jsonl(const FlightRecorder& recorder, std::ostream& out) {
  const std::vector<FlightEvent> events = recorder.snapshot();
  const std::vector<FlightRecorder::RetainedTimeline> retained =
      recorder.retained();
  {
    JsonWriter w(out, 0);
    w.begin_object();
    w.member("type", "header");
    w.member("schema", kFlightSchema);
    w.member("capacity", static_cast<std::uint64_t>(recorder.capacity()));
    w.member("recorded", recorder.recorded());
    w.member("dropped", recorder.dropped());
    w.member("retained", static_cast<std::uint64_t>(retained.size()));
    w.member("retain_dropped", recorder.retain_dropped());
    w.end_object();
    out << '\n';
  }
  for (const FlightEvent& e : events) {
    JsonWriter w(out, 0);
    w.begin_object();
    w.member("type", "event");
    write_flight_event_fields(w, e);
    w.end_object();
    out << '\n';
  }
  for (const FlightRecorder::RetainedTimeline& t : retained) {
    JsonWriter w(out, 0);
    w.begin_object();
    w.member("type", "retained");
    w.member("request_id", t.request_id);
    w.member("anomaly", t.anomaly);
    w.key("events");
    w.begin_array();
    for (const FlightEvent& e : t.events) {
      w.begin_object();
      write_flight_event_fields(w, e);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
  }
  SYSRLE_ENSURE(out.good(), "flight export: write failed");
}

void write_flight_jsonl_file(const FlightRecorder& recorder,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SYSRLE_REQUIRE(out.is_open(),
                 "flight export: cannot open for write: " + path);
  write_flight_jsonl(recorder, out);
}

void write_flight_chrome_trace(const FlightRecorder& recorder,
                               std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  w.begin_object();
  w.member("name", "process_name");
  w.member("ph", "M");
  w.member("pid", 1);
  w.member("tid", 0);
  w.key("args");
  w.begin_object();
  w.member("name", "sysrle flight recorder");
  w.end_object();
  w.end_object();

  for (const FlightEvent& e : recorder.snapshot()) {
    w.begin_object();
    w.member("name", to_string(e.kind));
    w.member("cat", "flight");
    w.member("ph", "i");
    w.member("s", "t");
    w.member("ts", e.ts_us);
    w.member("pid", 1);
    w.member("tid", flight_tid(e.ctx));
    w.key("args");
    w.begin_object();
    w.member("seq", e.seq);
    w.member("request_id", e.ctx.request_id);
    w.member("attempt", static_cast<std::uint64_t>(e.ctx.attempt));
    w.member("detail", e.detail);
    w.member("arg", e.arg);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.member("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.member("schema", kFlightSchema);
  w.member("recorded", recorder.recorded());
  w.member("dropped", recorder.dropped());
  w.end_object();

  w.end_object();
  out << '\n';
  SYSRLE_ENSURE(out.good(), "flight export: write failed");
}

void write_flight_chrome_trace_file(const FlightRecorder& recorder,
                                    const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SYSRLE_REQUIRE(out.is_open(),
                 "flight export: cannot open for write: " + path);
  write_flight_chrome_trace(recorder, out);
}

}  // namespace sysrle
