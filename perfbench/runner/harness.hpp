#pragma once
// Shared machinery of the benchmark program: run options, clocks, latency
// samples, the benchmark's own span tracer, the per-run report, the accounting
// gates, and the input generators every workload draws from.
//
// The benchmark calls the sysrle library only through its public entry points,
// the way an application would.  Spans are recorded here, around those calls;
// nothing inside the library is instrumented for the benchmark.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bitmap/bitmap_image.hpp"
#include "rle/rle_image.hpp"
#include "telemetry/span.hpp"
#include "workload/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

double ms_between(TimePoint from, TimePoint to);
double us_between(TimePoint from, TimePoint to);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump of a traced run ("" = no dump).
  std::string out_dir;
};

/// A latency (or duration) sample set with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 1]; 0 for an empty set.
  double pct(double p) const;

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_values_;
  mutable bool sorted_ = false;
};

/// Spans of one run, kept in memory in a local sysrle::SpanTracer (not the
/// library's global one, so program telemetry stays off) and written out when
/// the run ends.  Each operation has one root span (name "op") from its
/// scheduled arrival to its delivery; every other span is a call into one
/// layer made on the operation's behalf, named "<layer>.<call>".  The spans of
/// one operation carry the operation's id as their request id.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void span(std::uint64_t op, const char* name, TimePoint start,
            TimePoint end);

  /// Per-layer self time summed over every operation, in ms.  A stage span
  /// is a leaf, so its self time is its duration; the root's self time (the
  /// part of the operation no stage covers) is charged to "unattributed".
  std::map<std::string, double> self_ms_by_layer() const;
  /// Root self time over root duration, summed over operations.
  double unattributed_share() const;
  std::size_t ops() const;

  const sysrle::SpanTracer& spans() const { return spans_; }

 private:
  /// Walks every operation's root span with its stage spans.
  void for_each_op(
      const std::function<void(const sysrle::SpanEvent& root,
                               const std::vector<sysrle::SpanEvent>& stages)>&
          fn) const;

  bool enabled_;
  TimePoint epoch_ = Clock::now();  ///< span timestamps count from here
  sysrle::SpanTracer spans_{std::size_t{1} << 20};
};

/// Times one call into a layer (into `us`), recording its span when tracing.
template <typename Fn>
auto timed(Tracer& tracer, std::uint64_t op, const char* name, double& us,
           Fn&& fn) {
  const TimePoint start = Clock::now();
  auto result = fn();
  const TimePoint end = Clock::now();
  us = us_between(start, end);
  if (tracer.enabled()) tracer.span(op, name, start, end);
  return result;
}

double median(std::vector<double> v);

/// One phase of one workload: its metrics plus the correctness verdict.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output mismatches and broken accounting gates; any entry makes the run
  /// incorrect.
  std::vector<std::string> violations;
  /// Median latency of the foreground operation (tracing-overhead base).
  double foreground_p50_ms = 0.0;
  /// Every set-up repetition's duration (setup_s is their median).
  std::vector<double> setup_reps_s;

  void setup(std::vector<double> reps_s) {
    setup_reps_s = std::move(reps_s);
    e2e("setup_s", median(setup_reps_s), "s");
  }
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
  /// Records a gate: a false `ok` invalidates the run.
  void gate(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// A prepared workload: inputs are built; each call runs one phase (set-up,
/// measurement, teardown, checks) and returns its report.
using Runner = std::function<Report(const Options&, Tracer&)>;

Runner prepare_serve_scan(const Options& opts);
Runner prepare_serve_store(const Options& opts);
Runner prepare_batch_diff(const Options& opts);

// ---- helpers shared by the workloads ---------------------------------------

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Independent, reproducible sub-stream of the run seed.
sysrle::Rng rng_for(std::uint64_t seed, std::uint64_t stream);

/// Poisson arrival offsets (seconds from the start) over [0, seconds).
std::vector<double> poisson_arrivals(sysrle::Rng& rng, double rate,
                                     double seconds);

/// A PCB board design of the given size (workload/pcb).
sysrle::BitmapImage make_board(sysrle::Rng& rng, sysrle::pos_t width,
                               sysrle::pos_t height);
/// A scan of `reference`: paper-style error runs of 2-6 px flipped at
/// `error_fraction` in every row (workload/generator).
sysrle::RleImage make_scan(sysrle::Rng& rng, const sysrle::RleImage& reference,
                           double error_fraction);
/// The expected diff fingerprint of a pair: the paper's sequential merge per
/// row (baseline/sequential_diff), canonicalised and fingerprinted.
std::uint64_t oracle_fingerprint(const sysrle::RleImage& a,
                                 const sysrle::RleImage& b);

std::string pbm_bytes(const sysrle::BitmapImage& image);
std::string srlb_bytes(const sysrle::RleImage& image);

/// A scratch directory under the run's output directory, emptied first.
std::string fresh_dir(const Options& opts, const std::string& name);

/// Starts a peak-RSS measurement: hands freed heap back to the kernel, resets
/// the kernel's RSS high-water mark to the current RSS, and returns that RSS
/// in MB, the baseline (inputs already built) the peak is measured from.
/// `reset` is false when the kernel refused the reset; the peak then also
/// covers everything the process did before.
struct RssBaseline {
  double mb = 0.0;
  bool reset = false;
};
RssBaseline start_peak_rss();
/// RSS high-water mark (VmHWM) in MB.
double peak_rss_mb();

/// Fills the per-layer self-time metrics, the unattributed share and the
/// span count from a traced phase, and writes the span dump.
void add_trace_metrics(Report& report, const Tracer& tracer,
                       const Options& opts);

/// The per-layer metric table (name -> unit); every traced run reports each.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// The end-to-end metric table (name -> unit); every untraced run reports
/// each.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

}  // namespace perfbench
