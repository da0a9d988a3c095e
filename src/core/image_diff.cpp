#include "core/image_diff.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "baseline/sequential_diff.hpp"
#include "baseline/word_diff.hpp"
#include "common/assert.hpp"
#include "core/bus_variant.hpp"
#include "core/cost_model.hpp"
#include "core/row_executor.hpp"
#include "core/systolic_diff.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

const char* to_string(DiffEngine engine) {
  switch (engine) {
    case DiffEngine::kSystolic:
      return "systolic";
    case DiffEngine::kBusSystolic:
      return "bus-systolic";
    case DiffEngine::kSequentialMerge:
      return "sequential-merge";
    case DiffEngine::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

SequentialDiffResult sequential_row(const RleRow& a, const RleRow& b,
                                    bool canonicalize) {
  return canonicalize ? sequential_engine_xor(a, b) : sequential_xor(a, b);
}

RowDiff diff_row(const RleRow& a, const RleRow& b,
                 const ImageDiffOptions& options,
                 SystolicDiffMachine& machine) {
  RowDiff out;
  switch (options.engine) {
    case DiffEngine::kSystolic: {
      SystolicConfig cfg;
      cfg.check_invariants = options.check_invariants;
      cfg.canonicalize_output = options.canonicalize_output;
      SystolicResult r = systolic_xor(a, b, cfg, machine);
      out.output = std::move(r.output);
      out.counters = r.counters;
      break;
    }
    case DiffEngine::kBusSystolic: {
      BusConfig cfg;
      cfg.bus_width = options.bus_width;
      cfg.canonicalize_output = options.canonicalize_output;
      BusResult r = bus_systolic_xor(a, b, cfg);
      out.output = std::move(r.output);
      out.counters = r.counters;
      break;
    }
    case DiffEngine::kAdaptive: {
      // θ is a hardware-model knob: the route it picks and the Figure-5
      // estimate of the array's iterations are reported, while the row runs
      // on the host fast path, which the simulator never beats in
      // wall-clock (BENCH_pr10.json).  Both depend on nothing but the run
      // counts, so they are identical at every thread count.
      const DiffCostEstimate model = estimate_costs(a, b);
      out.adaptive_route = choose_adaptive_route(model.k1, model.k2,
                                                 kDefaultSimilarityThreshold);
      if (*out.adaptive_route == AdaptiveRoute::kSystolic)
        out.adaptive_modelled_iterations = model.run_count_difference();
      [[fallthrough]];
    }
    case DiffEngine::kSequentialMerge: {
      SequentialDiffResult r =
          sequential_row(a, b, options.canonicalize_output);
      out.output = std::move(r.output);
      out.sequential_iterations = r.iterations;
      break;
    }
  }
  return out;
}

void RowTally::add(const RowDiff& row) {
  counters += row.counters;
  max_row_iterations = std::max(max_row_iterations, row.counters.iterations);
  sequential_iterations += row.sequential_iterations;
  if (row.adaptive_route == AdaptiveRoute::kSystolic) ++adaptive_systolic_rows;
  if (row.adaptive_route == AdaptiveRoute::kSequential)
    ++adaptive_sequential_rows;
  adaptive_modelled_iterations += row.adaptive_modelled_iterations;
}

namespace {

/// Runs in a pair below which waking helpers costs more than it saves (about
/// 30 µs of work: a few ns a run on the host engines, far more on the
/// cycle-level simulators; crossovers measured on 4 vCPUs, 8–128 rows).
constexpr std::size_t kSerialRuns = 8192;
constexpr std::size_t kSerialSimulatedRuns = 512;

/// Per-row spans contend on the shared trace buffer at high thread counts,
/// so only every kRowSpanStride-th row opens one.  Sampling by row index is
/// deterministic: the same rows are sampled at any thread count.
constexpr std::size_t kRowSpanStride = 64;

}  // namespace

std::size_t row_parallelism(const RleImage& a, const RleImage& b,
                            const ImageDiffOptions& options) {
  const bool simulated = options.engine == DiffEngine::kSystolic ||
                         options.engine == DiffEngine::kBusSystolic;
  const std::size_t enough = simulated ? kSerialSimulatedRuns : kSerialRuns;
  std::size_t runs = 0;
  for (pos_t y = 0; y < a.height() && runs < enough; ++y)
    runs += a.row(y).run_count() + b.row(y).run_count();
  return runs < enough ? 1 : options.threads;
}

ImageDiffResult image_diff(const RleImage& a, const RleImage& b,
                           const ImageDiffOptions& options) {
  TELEMETRY_SPAN("image_diff", "image");
  SYSRLE_REQUIRE(a.width() == b.width() && a.height() == b.height(),
                 "image_diff: image dimensions differ");
  const pos_t height = a.height();
  const auto n = static_cast<std::size_t>(height);
  std::vector<RowDiff> outcomes(n);

  RowExecutor& executor = RowExecutor::global();
  const std::size_t threads = row_parallelism(a, b, options);
  std::vector<SystolicDiffMachine> machines(executor.plan_slots(n, threads));
  const RowRunStats stats = executor.run(
      n,
      [&](std::size_t i, std::size_t slot) {
        const pos_t y = static_cast<pos_t>(i);
        std::optional<TelemetrySpan> span;
        if (i % kRowSpanStride == 0) span.emplace("row_diff", "image");
        outcomes[i] = diff_row(a.row(y), b.row(y), options, machines[slot]);
      },
      threads);

  ImageDiffResult result;
  result.diff = RleImage(a.width(), height);
  for (pos_t y = 0; y < height; ++y) {
    RowDiff& o = outcomes[static_cast<std::size_t>(y)];
    result.add(o);
    result.diff.set_row(y, std::move(o.output));
  }
  result.threads_used = std::max<std::uint64_t>(stats.threads_used(), 1);
  result.parallel_rows = stats.parallel_rows();

  if (telemetry_enabled()) {
    MetricsRegistry& m = global_metrics();
    m.observe("image.threads_used",
              static_cast<double>(result.threads_used));
    for (const std::uint64_t rows : stats.rows_per_slot)
      if (rows > 0)
        m.observe("image.rows_per_thread", static_cast<double>(rows));
  }
  return result;
}

}  // namespace sysrle
