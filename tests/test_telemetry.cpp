// Tests for the telemetry layer: metrics registry, histograms, span tracer,
// the global enable flag, the exporters, and the bench report builder.

#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "core/systolic_diff.hpp"
#include "rle/serialize.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/exporters.hpp"
#include "test_util.hpp"

namespace sysrle {
namespace {

using testing::JsonValue;
using testing::parse_json;

/// Every test starts and ends with telemetry disabled and both sinks empty,
/// so ordering between tests cannot leak state.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_telemetry_enabled(false);
    reset_telemetry();
  }
  void TearDown() override {
    set_telemetry_enabled(false);
    reset_telemetry();
  }
};

// ------------------------------------------------------------------ registry

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("a");
  m.add("a", 4);
  m.add("b", 2);
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.counter("a"), 5u);
  EXPECT_EQ(s.counter("b"), 2u);
  EXPECT_EQ(s.counter("missing"), 0u);
  EXPECT_EQ(s.counter("missing", 99), 99u);
}

TEST(MetricsRegistry, GaugesKeepLatestValue) {
  MetricsRegistry m;
  m.set_gauge("g", 1.5);
  m.set_gauge("g", -2.0);
  EXPECT_DOUBLE_EQ(m.snapshot().gauge("g"), -2.0);
  EXPECT_DOUBLE_EQ(m.snapshot().gauge("missing", 7.0), 7.0);
}

TEST(MetricsRegistry, SnapshotIsIsolatedCopy) {
  MetricsRegistry m;
  m.add("c", 1);
  const MetricsSnapshot before = m.snapshot();
  m.add("c", 10);
  EXPECT_EQ(before.counter("c"), 1u);
  EXPECT_EQ(m.snapshot().counter("c"), 11u);
}

TEST(MetricsRegistry, ResetDropsEverything) {
  MetricsRegistry m;
  m.add("c");
  m.set_gauge("g", 1.0);
  m.observe("h", 2.0);
  EXPECT_FALSE(m.empty());
  m.reset();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.snapshot().histogram("h"), nullptr);
}

TEST(MetricsRegistry, HistogramSpecOnlyMattersOnCreation) {
  MetricsRegistry m;
  HistogramSpec fixed;
  fixed.scale = HistogramSpec::Scale::kFixed;
  fixed.bucket_width = 10.0;
  fixed.bucket_count = 4;
  m.observe("h", 5.0, fixed);
  m.observe("h", 25.0);  // default spec ignored; layout already fixed
  const MetricsSnapshot s = m.snapshot();
  const Histogram* h = s.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->spec().scale, HistogramSpec::Scale::kFixed);
  EXPECT_EQ(h->buckets()[0], 1u);
  EXPECT_EQ(h->buckets()[2], 1u);
}

// ---------------------------------------------------------------- histograms

TEST(Histogram, Log2BucketBoundaries) {
  Histogram h;  // default: log2, 32 buckets
  h.observe(0.5);   // <= 1          -> bucket 0
  h.observe(1.0);   // <= 1          -> bucket 0
  h.observe(2.0);   // (1, 2]        -> bucket 1
  h.observe(3.0);   // (2, 4]        -> bucket 2
  h.observe(4.0);   // (2, 4]        -> bucket 2
  h.observe(1024.0);  //             -> bucket 10
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[10], 1u);
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(10), 1024.0);
}

TEST(Histogram, OutOfRangeClampsToLastBucket) {
  HistogramSpec spec;
  spec.bucket_count = 4;
  Histogram h(spec);
  h.observe(1e30);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Histogram, FixedScaleBuckets) {
  HistogramSpec spec;
  spec.scale = HistogramSpec::Scale::kFixed;
  spec.bucket_width = 10.0;
  spec.bucket_count = 4;
  Histogram h(spec);
  h.observe(0.0);
  h.observe(9.9);
  h.observe(25.0);
  h.observe(1e9);  // clamps
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 20.0);
}

TEST(Histogram, MomentsTrackObservations) {
  Histogram h;
  for (double v : {2.0, 4.0, 6.0}) h.observe(v);
  EXPECT_EQ(h.stat().count(), 3u);
  EXPECT_DOUBLE_EQ(h.stat().mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.stat().min(), 2.0);
  EXPECT_DOUBLE_EQ(h.stat().max(), 6.0);
}

TEST(Histogram, InvalidSpecRejected) {
  HistogramSpec zero_buckets;
  zero_buckets.bucket_count = 0;
  EXPECT_THROW(Histogram{zero_buckets}, contract_error);
  HistogramSpec bad_width;
  bad_width.scale = HistogramSpec::Scale::kFixed;
  bad_width.bucket_width = 0.0;
  EXPECT_THROW(Histogram{bad_width}, contract_error);
}

// ------------------------------------------------------- global flag + sites

TEST_F(TelemetryTest, DisabledByDefaultAndSitesStaySilent) {
  EXPECT_FALSE(telemetry_enabled());
  const RleRow a({{0, 4}, {10, 2}});
  const RleRow b({{2, 4}});
  (void)systolic_xor(a, b);
  EXPECT_TRUE(global_metrics().empty());
  EXPECT_EQ(global_tracer().size(), 0u);
}

TEST_F(TelemetryTest, EnabledSystolicRunRecordsRowMetrics) {
  set_telemetry_enabled(true);
  const RleRow a({{0, 4}, {10, 2}});
  const RleRow b({{2, 4}});
  const SystolicResult r = systolic_xor(a, b);
  const MetricsSnapshot s = global_metrics().snapshot();
  EXPECT_EQ(s.counter("systolic.rows"), 1u);
  const Histogram* iters = s.histogram("systolic.row_iterations");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->stat().count(), 1u);
  EXPECT_DOUBLE_EQ(iters->stat().max(),
                   static_cast<double>(r.counters.iterations));
  // Default config keeps raw output, so the Observation-bound check is
  // armed — and the bound holds, so the counter stays zero.
  EXPECT_EQ(s.counter("systolic.obs_bound_violations"), 0u);
}

TEST_F(TelemetryTest, ObservationBoundHoldsOnRawOutput) {
  set_telemetry_enabled(true);
  SystolicConfig cfg;
  cfg.canonicalize_output = false;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const RleRow a = testing::random_row(rng, 256, 0.3);
    const RleRow b = testing::random_row(rng, 256, 0.3);
    (void)systolic_xor(a, b, cfg);
  }
  const MetricsSnapshot s = global_metrics().snapshot();
  EXPECT_EQ(s.counter("systolic.obs_bound_violations"), 0u);
  EXPECT_EQ(s.counter("systolic.rows"), 50u);
}

TEST_F(TelemetryTest, ResetTelemetryClearsBothSinksKeepsFlag) {
  set_telemetry_enabled(true);
  global_metrics().add("x");
  global_tracer().record("s", "c", 0, 1);
  reset_telemetry();
  EXPECT_TRUE(global_metrics().empty());
  EXPECT_EQ(global_tracer().size(), 0u);
  EXPECT_TRUE(telemetry_enabled());  // reset does not flip the flag
}

// Reading one SRLB image from a string stream counts exactly its size in
// serialize.bytes_in, even though the reader drains the stream; so does the
// byte-span reader.
TEST_F(TelemetryTest, SerializeBytesInCountsOneImageExactly) {
  RleImage img(64, 3);
  img.set_row(0, RleRow({{1, 3}, {10, 2}}));
  img.set_row(2, RleRow({{0, 64}}));
  std::ostringstream out;
  write_rle(out, img, RleFormat::kBinary);
  const std::string bytes = out.str();
  set_telemetry_enabled(true);
  std::istringstream in(bytes);
  EXPECT_EQ(read_rle(in), img);
  MetricsSnapshot s = global_metrics().snapshot();
  EXPECT_EQ(s.counter("serialize.images_read"), 1u);
  EXPECT_EQ(s.counter("serialize.bytes_in"), bytes.size());
  EXPECT_EQ(read_rle(std::as_bytes(std::span(bytes))), img);
  s = global_metrics().snapshot();
  EXPECT_EQ(s.counter("serialize.images_read"), 2u);
  EXPECT_EQ(s.counter("serialize.bytes_in"), 2 * bytes.size());
}

// -------------------------------------------------------------------- spans

TEST(SpanTracer, RecordsAndSortsByTimestamp) {
  SpanTracer t;
  t.record("late", "cat", 100, 5);
  t.record("early", "cat", 10, 5);
  t.record("outer", "cat", 10, 50);
  const std::vector<SpanEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Equal timestamps: the longer (enclosing) span first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "early");
  EXPECT_STREQ(events[2].name, "late");
}

TEST(SpanTracer, CapacityBoundsBufferAndCountsDrops) {
  SpanTracer t(2);
  t.record("a", "c", 0, 1);
  t.record("b", "c", 1, 1);
  t.record("c", "c", 2, 1);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(SpanTracer, NowIsMonotonic) {
  SpanTracer t;
  const std::uint64_t t0 = t.now_us();
  const std::uint64_t t1 = t.now_us();
  EXPECT_LE(t0, t1);
}

TEST_F(TelemetryTest, SpanMacroRecordsOnlyWhenEnabled) {
  {
    TELEMETRY_SPAN("disabled_scope");
  }
  EXPECT_EQ(global_tracer().size(), 0u);
  set_telemetry_enabled(true);
  {
    TELEMETRY_SPAN("enabled_scope", "testcat");
  }
  const std::vector<SpanEvent> events = global_tracer().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "enabled_scope");
  EXPECT_STREQ(events[0].category, "testcat");
  EXPECT_GE(events[0].tid, 1u);
}

TEST(ThreadOrdinal, StablePerThreadAndDistinctAcrossThreads) {
  const std::uint32_t mine = current_thread_ordinal();
  EXPECT_EQ(current_thread_ordinal(), mine);
  std::uint32_t other = 0;
  std::thread([&other] { other = current_thread_ordinal(); }).join();
  EXPECT_NE(other, mine);
}

// ----------------------------------------------------- thread safety (TSan)

TEST_F(TelemetryTest, ThreadSafetyHammer) {
  // Exercised under -fsanitize=thread in CI: concurrent counter bumps,
  // gauge stores, histogram observations, span records and snapshots.
  set_telemetry_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        global_metrics().add("hammer.count");
        global_metrics().set_gauge("hammer.gauge", static_cast<double>(i));
        global_metrics().observe("hammer.hist", static_cast<double>(i % 64));
        TELEMETRY_SPAN("hammer_span");
        if (i % 128 == 0) {
          (void)global_metrics().snapshot();
          (void)global_tracer().snapshot();
        }
      }
      (void)t;
    });
  }
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot s = global_metrics().snapshot();
  EXPECT_EQ(s.counter("hammer.count"),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  const Histogram* h = s.histogram("hammer.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->stat().count(),
            static_cast<std::size_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(global_tracer().size() + global_tracer().dropped(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

// ---------------------------------------------------------------- exporters

TEST_F(TelemetryTest, MetricsJsonExportRoundTrips) {
  MetricsRegistry m;
  m.add("rows", 3);
  m.set_gauge("util", 0.75);
  for (double v : {1.0, 2.0, 3.0, 100.0}) m.observe("iters", v);

  std::ostringstream os;
  write_metrics_json(m.snapshot(), os);
  const JsonValue root = parse_json(os.str());

  EXPECT_EQ(root.at("schema").string, "sysrle.metrics.v1");
  EXPECT_DOUBLE_EQ(root.at("counters").at("rows").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("util").number, 0.75);
  const JsonValue& h = root.at("histograms").at("iters");
  EXPECT_DOUBLE_EQ(h.at("count").number, 4.0);
  EXPECT_DOUBLE_EQ(h.at("min").number, 1.0);
  EXPECT_DOUBLE_EQ(h.at("max").number, 100.0);
  EXPECT_EQ(h.at("scale").string, "log2");
  // Sparse buckets: only non-empty ones are listed, each with le + count.
  const JsonValue& buckets = h.at("buckets");
  EXPECT_FALSE(buckets.array.empty());
  double total = 0;
  for (const JsonValue& b : buckets.array) total += b.at("count").number;
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST_F(TelemetryTest, HistogramExportListsAllBucketBoundaries) {
  MetricsRegistry m;
  HistogramSpec spec;
  spec.scale = HistogramSpec::Scale::kFixed;
  spec.bucket_width = 10.0;
  spec.bucket_count = 4;
  m.observe("lat", 5.0, spec);
  m.observe("lat", 35.0);

  std::ostringstream os;
  write_metrics_json(m.snapshot(), os);
  const JsonValue root = parse_json(os.str());
  const JsonValue& h = root.at("histograms").at("lat");

  // The dense boundaries array names every bucket's upper edge, so a reader
  // can reconstruct the full layout even though "buckets" is sparse.
  const JsonValue& bounds = h.at("boundaries");
  ASSERT_EQ(bounds.array.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(bounds.array[i].number, 10.0 * static_cast<double>(i + 1));
  // Every sparse bucket's le appears among the boundaries.
  for (const JsonValue& b : h.at("buckets").array) {
    bool found = false;
    for (const JsonValue& edge : bounds.array)
      if (edge.number == b.at("le").number) found = true;
    EXPECT_TRUE(found) << "le " << b.at("le").number;
  }
}

TEST_F(TelemetryTest, EmptyTracerExportsMetadataOnlyTrace) {
  SpanTracer t;
  std::ostringstream os;
  write_chrome_trace(t, os);
  const JsonValue root = parse_json(os.str());
  ASSERT_EQ(root.at("traceEvents").array.size(), 1u);  // metadata only
  EXPECT_EQ(root.at("traceEvents").array[0].at("ph").string, "M");
  EXPECT_DOUBLE_EQ(root.at("otherData").at("dropped_events").number, 0.0);
}

TEST_F(TelemetryTest, EmptyMetricsExportIsWellFormed) {
  MetricsRegistry m;
  std::ostringstream os;
  write_metrics_json(m.snapshot(), os);
  const JsonValue root = parse_json(os.str());
  EXPECT_EQ(root.at("schema").string, "sysrle.metrics.v1");
  EXPECT_TRUE(root.at("counters").object.empty());
  EXPECT_TRUE(root.at("gauges").object.empty());
  EXPECT_TRUE(root.at("histograms").object.empty());
}

TEST_F(TelemetryTest, ExportersRunConcurrentlyWithRecorders) {
  // Exercised under -fsanitize=thread in CI: snapshot-based exporters must
  // be safe while recording threads are still hot.  A small tracer keeps
  // each export (and its parse) cheap while the hammer runs.
  MetricsRegistry metrics;
  SpanTracer tracer(512);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop, &metrics, &tracer] {
      std::uint64_t i = 0;
      while (!stop.load()) {
        metrics.add("race.count");
        metrics.observe("race.hist", static_cast<double>(i % 32));
        tracer.record("race.span", "test", i, 1);
        ++i;
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    std::ostringstream metrics_os, trace_os;
    write_metrics_json(metrics.snapshot(), metrics_os);
    write_chrome_trace(tracer, trace_os);
    // Both exports parse mid-hammer.
    (void)parse_json(metrics_os.str());
    (void)parse_json(trace_os.str());
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST_F(TelemetryTest, ChromeTraceExportIsWellFormed) {
  SpanTracer t;
  t.record("row_diff", "image", 50, 10);
  t.record("image_diff", "image", 0, 100);

  std::ostringstream os;
  write_chrome_trace(t, os);
  const JsonValue root = parse_json(os.str());

  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.array.size(), 3u);  // metadata + 2 spans
  EXPECT_EQ(events.array[0].at("ph").string, "M");
  EXPECT_EQ(events.array[0].at("name").string, "process_name");
  // Complete events sorted by ts.
  EXPECT_EQ(events.array[1].at("ph").string, "X");
  EXPECT_EQ(events.array[1].at("name").string, "image_diff");
  EXPECT_EQ(events.array[2].at("name").string, "row_diff");
  EXPECT_LE(events.array[1].at("ts").number, events.array[2].at("ts").number);
  EXPECT_EQ(root.at("otherData").at("schema").string, "sysrle.trace.v1");
  EXPECT_DOUBLE_EQ(root.at("otherData").at("dropped_events").number, 0.0);
}

// -------------------------------------------------------------- bench report

TEST(BenchReport, RoundTripsAllSections) {
  BenchReport r("demo");
  r.set_param("mode", "full");
  r.set_param("seeds", std::int64_t{12});
  r.set_x("width", {128.0, 256.0});
  r.add_series("iterations", {5.0, 5.5});
  r.set_scalar("growth", 1.1);
  r.set_check("claim_holds", true);
  EXPECT_TRUE(r.all_checks_pass());

  std::ostringstream os;
  r.write(os);
  const JsonValue root = parse_json(os.str());
  EXPECT_EQ(root.at("schema").string, "sysrle.bench.v1");
  EXPECT_EQ(root.at("bench").string, "demo");
  EXPECT_EQ(root.at("params").at("mode").string, "full");
  EXPECT_DOUBLE_EQ(root.at("params").at("seeds").number, 12.0);
  EXPECT_EQ(root.at("x").at("name").string, "width");
  ASSERT_EQ(root.at("series").at("iterations").array.size(), 2u);
  EXPECT_DOUBLE_EQ(root.at("series").at("iterations").array[1].number, 5.5);
  EXPECT_DOUBLE_EQ(root.at("scalars").at("growth").number, 1.1);
  EXPECT_TRUE(root.at("checks").at("claim_holds").boolean);
}

TEST(BenchReport, SeriesLengthMismatchRejectedOnWrite) {
  BenchReport r("demo");
  r.set_x("width", {1.0, 2.0});
  r.add_series("bad", {1.0});
  std::ostringstream os;
  EXPECT_THROW(r.write(os), contract_error);
}

TEST(BenchReport, FailedCheckFlipsAllChecksPass) {
  BenchReport r("demo");
  r.set_check("a", true);
  r.set_check("b", false);
  EXPECT_FALSE(r.all_checks_pass());
}

}  // namespace
}  // namespace sysrle
