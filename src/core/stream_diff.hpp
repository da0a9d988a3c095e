#pragma once
// Streaming difference processing for line-scan acquisition.
//
// PCB scanners deliver one scanline at a time and boards are gigabytes; the
// inspection system cannot buffer two whole images.  StreamDiffer accepts
// (reference row, scan row) pairs as they arrive, runs the configured
// engine, hands each difference row to a callback, and keeps only O(1)
// state: running counters and the double-buffering latency model of a
// machine that loads row n+1 while processing row n.
//
// The stream must not stall on one bad row.  When the row engine throws —
// a checker detection, a machine defect — the row is recomputed on the
// sequential merge engine and the error callback is told; when the input
// runs themselves are invalid (push_row_runs), the row degrades to an empty
// difference row rather than poisoning the pipeline.

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/image_diff.hpp"
#include "core/systolic_diff.hpp"
#include "rle/rle_row.hpp"

namespace sysrle {

/// Aggregate state of a streaming run.  The per-row counts are the
/// RowTally that image_diff sums too.
struct StreamSummary : RowTally {
  std::uint64_t rows = 0;
  len_t difference_pixels = 0;  ///< saturates at the len_t maximum
  /// Pipeline latency in cycles for a double-buffered machine: each row
  /// costs max(iterations, load_cycles), because the next row's runs stream
  /// into the shadow registers while the current row computes.
  cycle_t pipelined_cycles = 0;
  /// Rows recomputed by the sequential fallback after the engine threw
  /// (their merge iterations are in sequential_iterations).
  std::uint64_t fallback_rows = 0;
  /// Invalid input rows degraded to an empty difference row.
  std::uint64_t poisoned_rows = 0;
  /// Push *refusal events* after the stream's deadline expired — one per
  /// push attempt that was refused, NOT the number of rows the caller never
  /// pushed.  A caller that abandons the image on the first refusal (as
  /// DiffService does) sees expired_rows == 1; the rows it skipped are
  /// `image height - rows`.  The engine never ran and the row callback did
  /// not fire for refused pushes.
  std::uint64_t expired_rows = 0;
};

/// Processes row pairs one at a time with bounded memory.
class StreamDiffer {
 public:
  /// `on_row(y, diff_row)` is invoked for every pushed pair, in order.
  using RowCallback = std::function<void(pos_t y, const RleRow& diff)>;

  /// Invoked when a row could not be processed normally; `diagnostic` is a
  /// one-line description.  The stream continues either way.
  using ErrorCallback =
      std::function<void(pos_t y, const std::string& diagnostic)>;

  /// Replacement row engine (test hook / custom hardware model).  Must
  /// return the XOR of the two rows and may fill in machine counters;
  /// throwing makes the differ fall back to the sequential engine.
  using RowEngine = std::function<RleRow(
      const RleRow& reference, const RleRow& scan, SystolicCounters& c)>;

  StreamDiffer(ImageDiffOptions options, RowCallback on_row);

  /// Returns true when the stream's deadline has expired; checked between
  /// rows (the deadline-propagation rule in docs/ROBUSTNESS.md).
  using DeadlineCheck = std::function<bool()>;

  /// Installs (or clears, with nullptr) the error callback.
  void set_error_callback(ErrorCallback on_error);

  /// Overrides the engine selected by ImageDiffOptions (nullptr restores it).
  void set_engine_override(RowEngine engine);

  /// Installs (or clears, with nullptr) a deadline.  Once it reports
  /// expiry, push_row/push_row_runs refuse rows *before* invoking the
  /// engine — an expired request must stop consuming machine cycles
  /// mid-image — and return false; refused rows are counted in
  /// StreamSummary::expired_rows and the row callback does not fire.
  void set_deadline(DeadlineCheck expired);

  /// Feeds the next scanline pair.  Rows must fit a common width, but the
  /// differ itself is width-agnostic.  An engine failure on this pair is
  /// absorbed: the error callback fires and the row is recomputed on the
  /// sequential merge engine (counted in StreamSummary::fallback_rows).
  /// Returns false (without touching the engine) when the deadline has
  /// expired, true otherwise.
  bool push_row(const RleRow& reference, const RleRow& scan);

  /// Untrusted entry point: validates both run lists before building rows.
  /// An invalid list does not throw — the row degrades to an empty
  /// difference row, the error callback fires, and the stream continues
  /// (counted in StreamSummary::poisoned_rows).  Returns false only when
  /// the deadline has expired (the row is then not consumed).
  bool push_row_runs(std::vector<Run> reference, std::vector<Run> scan);

  /// Number of rows processed so far.
  std::uint64_t rows() const { return summary_.rows; }

  /// Finalises and returns the summary.  The differ can keep accepting rows
  /// afterwards; finish() may be called repeatedly.
  const StreamSummary& finish() const { return summary_; }

 private:
  RowDiff run_engine(const RleRow& reference, const RleRow& scan);
  void report(pos_t y, const std::string& diagnostic);
  /// True (and accounts the refusal) when the deadline has expired.
  bool refuse_if_expired();
  /// Telemetry epilogue shared by the normal and poisoned row paths, so the
  /// queue-depth and rows/sec gauges stay balanced on every path.  The first
  /// call's `t0` anchors the rows/sec gauge.
  void record_row_telemetry(std::chrono::steady_clock::time_point t0,
                            double queue_depth_runs);

  ImageDiffOptions options_;
  RowCallback on_row_;
  ErrorCallback on_error_;
  RowEngine engine_override_;
  DeadlineCheck deadline_expired_;
  StreamSummary summary_;
  /// Machine workspace recycled across rows for the systolic engine (the
  /// stream is serial, so one workspace suffices).
  SystolicDiffMachine machine_workspace_;
  /// Wall-clock start of the first row timed with telemetry enabled (the
  /// epoch until then); anchors the rows/sec gauge.
  std::chrono::steady_clock::time_point first_push_{};
};

}  // namespace sysrle
