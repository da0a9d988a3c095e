#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "baseline/sequential_diff.hpp"
#include "bitmap/pbm_io.hpp"
#include "rle/serialize.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/request_context.hpp"
#include "workload/generator.hpp"
#include "workload/pcb.hpp"

namespace perfbench {

using namespace sysrle;

double ms_between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double us_between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double Samples::pct(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    sorted_values_ = values_;
    std::sort(sorted_values_.begin(), sorted_values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p * static_cast<double>(values_.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted_values_[std::min(i, values_.size() - 1)];
}

// ---- tracer ----------------------------------------------------------------

void Tracer::span(std::uint64_t op, const char* name, TimePoint start,
                  TimePoint end) {
  const auto us = [](Clock::duration d) {
    const auto n = std::chrono::duration_cast<std::chrono::microseconds>(d);
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, n.count()));
  };
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = op;
  const RequestContextScope scope(ctx);
  spans_.record(name, "perfbench", us(start - epoch_), us(end - start));
}

void Tracer::for_each_op(
    const std::function<void(const SpanEvent&, const std::vector<SpanEvent>&)>&
        fn) const {
  std::vector<SpanEvent> sorted = spans_.snapshot();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.ctx.request_id < b.ctx.request_id;
                   });
  std::vector<SpanEvent> stages;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    const SpanEvent* root = nullptr;
    stages.clear();
    for (; j < sorted.size() &&
           sorted[j].ctx.request_id == sorted[i].ctx.request_id;
         ++j) {
      if (std::string_view(sorted[j].label()) == "op")
        root = &sorted[j];
      else
        stages.push_back(sorted[j]);
    }
    if (root) fn(*root, stages);
    i = j;
  }
}

namespace {

std::string layer_of(const char* name) {
  const std::string_view n(name);
  return std::string(n.substr(0, n.find('.')));
}

double us_to_ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

/// Length of the union of `stages` clipped to the root's interval, in ms.
double covered_ms(const SpanEvent& root, std::vector<SpanEvent> stages) {
  std::sort(stages.begin(), stages.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.ts_us < b.ts_us;
            });
  const std::uint64_t root_end = root.ts_us + root.dur_us;
  std::uint64_t covered = 0;
  std::uint64_t cursor = root.ts_us;
  for (const SpanEvent& s : stages) {
    const std::uint64_t from = std::max(s.ts_us, cursor);
    const std::uint64_t to = std::min(s.ts_us + s.dur_us, root_end);
    if (to > from) {
      covered += to - from;
      cursor = to;
    }
  }
  return us_to_ms(covered);
}

}  // namespace

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::string, double> self;
  for_each_op([&](const SpanEvent& root, const std::vector<SpanEvent>& stages) {
    for (const SpanEvent& s : stages)
      self[layer_of(s.label())] += us_to_ms(s.dur_us);
    self["unattributed"] += us_to_ms(root.dur_us) - covered_ms(root, stages);
  });
  return self;
}

double Tracer::unattributed_share() const {
  double total = 0.0, uncovered = 0.0;
  for_each_op([&](const SpanEvent& root, const std::vector<SpanEvent>& stages) {
    const double d = us_to_ms(root.dur_us);
    total += d;
    uncovered += d - covered_ms(root, stages);
  });
  return total > 0.0 ? uncovered / total : 0.0;
}

std::size_t Tracer::ops() const {
  std::size_t n = 0;
  for_each_op([&](const SpanEvent&, const std::vector<SpanEvent>&) { ++n; });
  return n;
}

// ---- helpers ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Rng rng_for(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
             0x94d049bb133111ebull);
}

std::vector<double> poisson_arrivals(Rng& rng, double rate, double seconds) {
  std::vector<double> at;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    if (t >= seconds) return at;
    at.push_back(t);
  }
}

BitmapImage make_board(Rng& rng, pos_t width, pos_t height) {
  PcbParams p;
  p.width = width;
  p.height = height;
  // Scale the default 1024x256 artwork's feature counts to the board area.
  const double area = static_cast<double>(width) * static_cast<double>(height) /
                      (1024.0 * 256.0);
  const auto scaled = [&](std::size_t n) {
    const long v = std::lround(static_cast<double>(n) * area);
    return std::max<std::size_t>(1, static_cast<std::size_t>(v));
  };
  p.horizontal_traces = scaled(p.horizontal_traces);
  p.vertical_traces = scaled(p.vertical_traces);
  p.pads = scaled(p.pads);
  return generate_pcb_artwork(rng, p);
}

RleImage make_scan(Rng& rng, const RleImage& reference, double error_fraction) {
  ErrorGenParams ep;
  ep.error_fraction = error_fraction;
  std::vector<RleRow> rows;
  rows.reserve(static_cast<std::size_t>(reference.height()));
  for (const RleRow& row : reference.rows())
    rows.push_back(inject_errors(rng, row, reference.width(), ep));
  return RleImage(reference.width(), std::move(rows));
}

std::uint64_t oracle_fingerprint(const RleImage& a, const RleImage& b) {
  std::vector<RleRow> rows;
  rows.reserve(static_cast<std::size_t>(a.height()));
  for (pos_t y = 0; y < a.height(); ++y)
    rows.push_back(sequential_xor(a.row(y), b.row(y)).output.canonical());
  return canonical_fingerprint(RleImage(a.width(), std::move(rows)));
}

std::string pbm_bytes(const BitmapImage& image) {
  std::ostringstream out;
  write_pbm(out, image, PbmFormat::kRaw);
  return std::move(out).str();
}

std::string srlb_bytes(const RleImage& image) {
  std::ostringstream out;
  write_rle(out, image, RleFormat::kBinary);
  return std::move(out).str();
}

std::string fresh_dir(const Options& opts, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(opts.out_dir.empty() ? "." : opts.out_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

namespace {

/// A "<key>:   <n> kB" line of /proc/self/status, in MB.
double proc_status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size() + 1, key + ":") != 0) continue;
    return std::stod(line.substr(key.size() + 1)) / 1024.0;
  }
  throw std::runtime_error("no " + key + " in /proc/self/status");
}

}  // namespace

RssBaseline start_peak_rss() {
  malloc_trim(0);
  RssBaseline base;
  // "5" resets the high-water mark (VmHWM) to the current RSS.
  std::ofstream clear("/proc/self/clear_refs");
  base.reset = static_cast<bool>(clear << "5" << std::flush);
  base.mb = proc_status_mb("VmRSS");
  return base;
}

double peak_rss_mb() { return proc_status_mb("VmHWM"); }

void add_trace_metrics(Report& report, const Tracer& tracer,
                       const Options& opts) {
  const std::size_t ops = tracer.ops();
  const double per_op = ops ? 1.0 / static_cast<double>(ops) : 0.0;
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    const std::string name =
        layer == "unattributed" ? "bench.unattributed_ms_per_op"
                                : layer + ".self_ms_per_op";
    report.layer(name, ms * per_op, "ms");
  }
  report.layer("bench.unattributed_share", tracer.unattributed_share(),
               "share");
  report.layer("bench.traced_ops", static_cast<double>(ops), "count");
  if (!opts.out_dir.empty())
    write_chrome_trace_file(tracer.spans(), opts.out_dir + "/trace-" +
                                                opts.workload + "-seed" +
                                                std::to_string(opts.seed) +
                                                ".json");
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"setup_s", "s"},       {"peak_rss_mb", "MB"},  {"p50_ms", "ms"},
      {"goodput_rps", "1/s"}, {"diff_mpix_s", "Mpix/s"},
  };
  return table;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      // client tails: end to end, reported without a bound (see README)
      {"p99_ms", "ms"},
      {"batch_p99_ms", "ms"},
      {"ingest_p99_ms", "ms"},
      // bench: open-loop validity, stage reconciliation, tracing cost
      {"bench.gen_lag_ms_p50", "ms"},
      {"bench.gen_lag_ms_p99", "ms"},
      {"bench.unattributed_share", "share"},
      {"bench.unattributed_ms_per_op", "ms"},
      {"bench.trace_overhead_share", "share"},
      {"bench.traced_ops", "count"},
      {"bench.p99_samples", "count"},
      {"bench.self_ms_per_op", "ms"},
      // bitmap
      {"bitmap.ingest_us_p50", "us"},
      {"bitmap.self_ms_per_op", "ms"},
      // rle
      {"rle.read_us_p50", "us"},
      {"rle.fingerprint_us_p50", "us"},
      {"rle.self_ms_per_op", "ms"},
      // service (router + replica services)
      {"router.submit_us_p50", "us"},
      {"router.submit_us_p99", "us"},
      {"router.coalesced", "count"},
      {"router.failovers", "count"},
      {"router.hedges_fired", "count"},
      {"router.hedges_won", "count"},
      {"router.hedges_suppressed", "count"},
      {"router.hedge_win_ratio", "share"},
      {"service.queue_ms_p99", "ms"},
      {"service.exec_ms_p50", "ms"},
      {"service.engine_invocations", "count"},
      {"service.completed", "count"},
      {"service.cancelled", "count"},
      {"service.useful_share", "share"},
      {"service.shed_queue_full", "count"},
      {"service.self_ms_per_op", "ms"},
      // store (durable image store + result cache)
      {"store.register_us_p50", "us"},
      {"store.register_us_p99", "us"},
      {"store.journal_fsyncs", "count"},
      {"store.journal_bytes", "bytes"},
      {"store.evicted", "count"},
      {"store.lookup_misses", "count"},
      {"store.recovery_replayed", "count"},
      {"store.self_ms_per_op", "ms"},
      {"cache.lookups", "count"},
      {"cache.hit_ratio", "share"},
      {"cache.evictions", "count"},
      // core
      {"core.image_diff_ms_p50", "ms"},
      {"core.threads_used", "count"},
      {"core.parallel_rows", "count"},
      {"core.adaptive_systolic_rows", "count"},
      {"core.adaptive_sequential_rows", "count"},
      {"systolic.iterations", "count"},
      {"core.sequential_iterations", "count"},
      {"core.max_row_iterations", "count"},
      {"core.self_ms_per_op", "ms"},
      // telemetry
      {"telemetry.flight_events", "count"},
      {"telemetry.flight_dropped", "count"},
  };
  return table;
}

}  // namespace perfbench
