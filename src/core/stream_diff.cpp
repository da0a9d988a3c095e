#include "core/stream_diff.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "rle/validate.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

namespace {

/// One-line description of the first defect in a validation report.
std::string describe(const char* which, const RowValidationReport& report) {
  const RowFinding& f = report.findings.front();
  std::string s = std::string(which) + " run " + std::to_string(f.run_index) +
                  ": " + to_string(f.issue);
  if (report.findings.size() > 1) s += " (+ more)";
  return s;
}

}  // namespace

StreamDiffer::StreamDiffer(ImageDiffOptions options, RowCallback on_row)
    : options_(options), on_row_(std::move(on_row)) {
  SYSRLE_REQUIRE(on_row_ != nullptr, "StreamDiffer: null row callback");
}

void StreamDiffer::set_error_callback(ErrorCallback on_error) {
  on_error_ = std::move(on_error);
}

void StreamDiffer::set_engine_override(RowEngine engine) {
  engine_override_ = std::move(engine);
}

void StreamDiffer::set_deadline(DeadlineCheck expired) {
  deadline_expired_ = std::move(expired);
}

void StreamDiffer::report(pos_t y, const std::string& diagnostic) {
  if (on_error_) on_error_(y, diagnostic);
}

bool StreamDiffer::refuse_if_expired() {
  if (!deadline_expired_ || !deadline_expired_()) return false;
  ++summary_.expired_rows;
  return true;
}

void StreamDiffer::record_row_telemetry(
    std::chrono::steady_clock::time_point t0, double queue_depth_runs) {
  if (first_push_ == std::chrono::steady_clock::time_point{}) first_push_ = t0;
  MetricsRegistry& m = global_metrics();
  const auto t1 = std::chrono::steady_clock::now();
  const auto us = [](std::chrono::steady_clock::duration d) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  m.observe("stream.row_latency_us", us(t1 - t0));
  // A poisoned row holds no runs: the gauge must return to baseline, not
  // keep advertising the previous row's load.
  m.set_gauge("stream.queue_depth_runs", queue_depth_runs);
  const double elapsed_us = us(t1 - first_push_);
  if (elapsed_us > 0.0)
    m.set_gauge("stream.rows_per_sec",
                static_cast<double>(summary_.rows) * 1e6 / elapsed_us);
}

RowDiff StreamDiffer::run_engine(const RleRow& reference, const RleRow& scan) {
  if (!engine_override_)
    return diff_row(reference, scan, options_, machine_workspace_);
  RowDiff out;
  out.output = engine_override_(reference, scan, out.counters);
  return out;
}

bool StreamDiffer::push_row(const RleRow& reference, const RleRow& scan) {
  if (refuse_if_expired()) return false;
  TELEMETRY_SPAN("stream.push_row", "stream");
  const bool telem = telemetry_enabled();
  const auto t0 = telem ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};

  const pos_t y = static_cast<pos_t>(summary_.rows);
  RowDiff row;

  try {
    row = run_engine(reference, scan);
  } catch (const std::exception& e) {
    // The scanner keeps delivering lines whether or not the array is
    // healthy: report the failure, then recompute the row on the sequential
    // merge engine, which shares no datapath with the array.
    report(y, e.what());
    SequentialDiffResult r =
        sequential_row(reference, scan, options_.canonicalize_output);
    row.output = std::move(r.output);
    row.sequential_iterations = r.iterations;
    ++summary_.fallback_rows;
  }

  ++summary_.rows;
  summary_.add(row);
  // Saturating: hostile near-len_t-max runs must not overflow the total.
  const len_t pixels = row.output.foreground_pixels();
  summary_.difference_pixels =
      pixels > std::numeric_limits<len_t>::max() - summary_.difference_pixels
          ? std::numeric_limits<len_t>::max()
          : summary_.difference_pixels + pixels;
  // Double-buffered latency: computing this row overlaps loading the next
  // one, streamed into the shadow registers at one run per cycle.
  const cycle_t load_cycles = reference.run_count() + scan.run_count();
  summary_.pipelined_cycles +=
      std::max<cycle_t>(row.counters.iterations, load_cycles);

  if (telem) record_row_telemetry(t0, static_cast<double>(load_cycles));

  on_row_(y, row.output);
  return true;
}

bool StreamDiffer::push_row_runs(std::vector<Run> reference,
                                 std::vector<Run> scan) {
  const RowValidationReport ra = validate_runs(reference);
  const RowValidationReport rb = validate_runs(scan);
  if (!ra.ok() || !rb.ok()) {
    if (refuse_if_expired()) return false;
    const bool telem = telemetry_enabled();
    const auto t0 = telem ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    const pos_t y = static_cast<pos_t>(summary_.rows);
    report(y, !ra.ok() ? describe("reference", ra) : describe("scan", rb));
    ++summary_.rows;
    ++summary_.poisoned_rows;
    // A poisoned row carries zero runs into the machine, so the queue-depth
    // gauge is recorded at baseline (0) rather than left at the previous
    // row's value.
    if (telem) record_row_telemetry(t0, 0.0);
    on_row_(y, RleRow{});
    return true;
  }
  return push_row(RleRow(std::move(reference)), RleRow(std::move(scan)));
}

}  // namespace sysrle
