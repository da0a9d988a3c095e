#pragma once
// Image-level difference API: applies a row-diff engine to every scanline of
// two RLE images.  This is the operation a PCB inspection system performs per
// acquired board image (reference CAD artwork vs scan), and the natural unit
// for which the paper's per-row machine would be replicated or time-shared.
//
// Rows are independent (the whole premise of the paper's systolic array), so
// the row loop always runs on the native RowExecutor pool.  The result is
// bit-identical to a serial run regardless of thread count: scheduling
// decides who computes a row, never what, and aggregation is serial in row
// order.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "baseline/sequential_diff.hpp"
#include "core/cost_model.hpp"
#include "core/systolic_diff.hpp"
#include "rle/rle_image.hpp"
#include "systolic/counters.hpp"

namespace sysrle {

/// Which row-diff engine to run.  kSystolic is the reproduction default of
/// the paper-facing tools (sysrle diff/inspect/perf); the library and the
/// serving stack default to kSequentialMerge, the host fast path.
enum class DiffEngine {
  kSystolic,         ///< the paper's machine (cycle-level simulation)
  kBusSystolic,      ///< section-6 broadcast-bus variant
  kSequentialMerge,  ///< the paper's sequential comparator
  kAdaptive,         ///< runs kSequentialMerge on every row and reports
                     ///< the route θ picks on the cheap half of the §5
                     ///< cost model plus the modelled systolic iterations
                     ///< (a hardware model; see core/cost_model.hpp)
};

/// Human-readable engine name (for bench output).
const char* to_string(DiffEngine engine);

/// Options for image_diff.
struct ImageDiffOptions {
  /// Canonical output runs the word-parallel engine (baseline/word_diff.hpp).
  DiffEngine engine = DiffEngine::kSequentialMerge;
  /// Merge adjacent runs in every output row.
  bool canonicalize_output = true;
  /// Run the section-4 invariant checkers on every systolic row (slow).
  bool check_invariants = false;
  /// Bus width for kBusSystolic (0 = unbounded).
  std::size_t bus_width = 0;

  /// Worker threads for the row loop: 0 = auto (everything the shared pool
  /// offers), 1 = serial in the calling thread, N = up to N participants
  /// (growing the pool on demand, capped at RowExecutor::kMaxThreads).  A
  /// pair too small to be worth waking helpers runs serially either way
  /// (row_parallelism).
  std::size_t threads = 0;
};

/// One row's diff as produced by diff_row.
struct RowDiff {
  RleRow output;
  SystolicCounters counters;                ///< machine activity (systolic/bus)
  std::uint64_t sequential_iterations = 0;  ///< merge or word iterations
  /// kAdaptive only: the route θ picked (the row ran on kSequentialMerge).
  std::optional<AdaptiveRoute> adaptive_route;
  /// kAdaptive only: modelled systolic iterations, |k1 - k2| when θ routes
  /// the row to the array and 0 otherwise.  A model, not a count.
  std::uint64_t adaptive_modelled_iterations = 0;
};

/// The per-row counts summed over an image or a stream.  add() is the only
/// place they are summed, so image_diff and StreamDiffer agree by
/// construction.
struct RowTally {
  SystolicCounters counters;  ///< summed machine activity (systolic/bus)
  std::uint64_t sequential_iterations = 0;  ///< summed merge iterations
  cycle_t max_row_iterations = 0;  ///< worst row (array latency if machines
                                   ///< process rows in parallel)

  /// kAdaptive route mix: θ's per-row choice (both zero for fixed engines).
  std::uint64_t adaptive_systolic_rows = 0;
  std::uint64_t adaptive_sequential_rows = 0;
  /// kAdaptive only: the Figure-5 estimate |k1 - k2| summed over the rows
  /// θ routes to the array.  A model, not a count — no machine ran, so
  /// `counters` and `max_row_iterations` stay zero.
  std::uint64_t adaptive_modelled_iterations = 0;

  void add(const RowDiff& row);
  bool operator==(const RowTally&) const = default;
};

/// Aggregated result of an image-level diff.
struct ImageDiffResult : RowTally {
  RleImage diff{0, 0};  ///< per-row XOR of the two images

  /// Effective parallelism of this call: participants that processed at
  /// least one row, and rows processed off the calling thread.  A silently
  /// serial run is detectable as threads_used == 1 / parallel_rows == 0.
  std::uint64_t threads_used = 1;
  std::uint64_t parallel_rows = 0;
};

/// The single row-engine dispatch shared by image_diff, StreamDiffer and
/// every other caller: diffs one row pair on options.engine.  `machine` is
/// a systolic workspace recycled across calls (one per thread).
RowDiff diff_row(const RleRow& a, const RleRow& b,
                 const ImageDiffOptions& options,
                 SystolicDiffMachine& machine);

/// The sequential engine: the word-parallel engine for canonical output,
/// the paper's scalar merge — the only definition of raw piecewise output,
/// which the Observation-bound telemetry needs — otherwise.
SequentialDiffResult sequential_row(const RleRow& a, const RleRow& b,
                                    bool canonicalize);

/// The max_parallelism image_diff hands the row executor: options.threads,
/// or 1 when the pair has too few runs (both images together) for the
/// engine's row loop to pay for waking a helper.  Reads run counts only,
/// and stops once the threshold is met.
std::size_t row_parallelism(const RleImage& a, const RleImage& b,
                            const ImageDiffOptions& options);

/// Computes the per-row XOR of two equal-sized RLE images with the selected
/// engine.  Rows are processed in parallel on the native executor; output
/// and aggregated counters are bit-identical to a serial run for any thread
/// count.
ImageDiffResult image_diff(const RleImage& a, const RleImage& b,
                           const ImageDiffOptions& options = {});

}  // namespace sysrle
