#include "core/systolic_diff.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/invariants.hpp"
#include "rle/ops.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

namespace {

std::size_t auto_capacity(std::size_t k1, std::size_t k2) {
  // Corollary 1.2: k1 + k2 cells suffice; one spare cell turns a hypothetical
  // violation into a detected contract failure instead of silent data loss.
  return std::max<std::size_t>(k1 + k2 + 1, 1);
}

}  // namespace

SystolicDiffMachine::SystolicDiffMachine(const RleRow& a, const RleRow& b,
                                         const SystolicConfig& config) {
  load(a, b, config);
}

void SystolicDiffMachine::load(const RleRow& a, const RleRow& b,
                               const SystolicConfig& config) {
  config_ = config;
  array_.reset(config.capacity ? config.capacity
                               : auto_capacity(a.run_count(), b.run_count()));
  counters_ = SystolicCounters{};
  k1_ = a.run_count();
  k2_ = b.run_count();
  SYSRLE_REQUIRE(array_.size() >= std::max(a.run_count(), b.run_count()),
                 "SystolicDiffMachine: capacity below input run count");
  for (std::size_t i = 0; i < a.run_count(); ++i)
    array_.cell(i).load_small(a[i]);
  for (std::size_t i = 0; i < b.run_count(); ++i)
    array_.cell(i).load_big(b[i]);
  note_occupancy();
  if (config_.trace) config_.trace->record_initial(snapshots());
}

bool SystolicDiffMachine::terminated() const {
  // Wired-AND of the per-cell C lines (Figure 2's termination signalling).
  return array_.all_of([](const DiffCell& c) { return c.complete(); });
}

void SystolicDiffMachine::step() {
  SYSRLE_REQUIRE(!terminated(), "SystolicDiffMachine::step after termination");
  ++counters_.iterations;

  // Theorem 1 as a hard stop: more than k1+k2 iterations would falsify the
  // paper's termination proof (or our transcription of the algorithm).
  SYSRLE_CHECK(counters_.iterations <= theorem1_bound(),
               "Theorem 1 violated: machine ran past k1+k2 iterations");

  // Step 1 — order the registers in every cell.
  array_.for_each([this](DiffCell& c) {
    switch (c.order()) {
      case OrderAction::kSwapped:
        ++counters_.swaps;
        break;
      case OrderAction::kPromoted:
        ++counters_.promotions;
        break;
      case OrderAction::kNone:
        break;
    }
  });
  record_trace(MicroStep::kOrder);

  // Step 2 — in-cell XOR.
  array_.for_each([this](DiffCell& c) {
    if (c.xor_step()) ++counters_.xors;
  });
  record_trace(MicroStep::kXor);

  // Step 3 — shift the RegBig lane one cell right.  The input port I feeds
  // an empty register into cell 0; whatever leaves the last cell must be
  // empty (Corollary 1.2 — the array is sized so this cannot happen).
  std::uint64_t moved = 0;
  const std::optional<Run> out = array_.shift_right(
      [&moved](DiffCell& c) {
        std::optional<Run> v = c.take_big();
        if (v) ++moved;
        return v;
      },
      [](DiffCell& c, std::optional<Run> v) { c.load_big(v); },
      std::optional<Run>{});
  counters_.shifts += moved;
  SYSRLE_CHECK(!out.has_value(),
               "Corollary 1.2 violated: a run was shifted out of the array");
  record_trace(MicroStep::kShift);
  note_occupancy();
}

cycle_t SystolicDiffMachine::run() {
  InvariantContext ctx;
  if (config_.check_invariants) {
    // Theorem 3 says the multiset XOR of all held runs is invariant and
    // equals the answer, so the expected value can be rebuilt from the
    // current state even if some iterations already ran.
    std::vector<Run> all;
    for (cell_index_t i = 0; i < array_.size(); ++i) {
      if (array_.cell(i).reg_small()) all.push_back(*array_.cell(i).reg_small());
      if (array_.cell(i).reg_big()) all.push_back(*array_.cell(i).reg_big());
    }
    ctx.expected_xor = xor_run_multiset(std::move(all));
    ctx.k1 = k1_;
    ctx.k2 = k2_;
  }

  const cycle_t start = counters_.iterations;
  while (!terminated()) {
    step();
    if (config_.check_invariants)
      check_end_of_iteration(array_, ctx, counters_.iterations);
  }
  if (config_.check_invariants) check_final_state(array_, ctx);
  return counters_.iterations - start;
}

RleRow SystolicDiffMachine::gather_output() const {
  std::vector<Run> runs;
  for (cell_index_t i = 0; i < array_.size(); ++i)
    if (array_.cell(i).reg_small()) runs.push_back(*array_.cell(i).reg_small());
  RleRow out(std::move(runs));
  if (config_.canonicalize_output) out.canonicalize();
  return out;
}

std::vector<CellSnapshot> SystolicDiffMachine::snapshots() const {
  std::vector<CellSnapshot> snaps;
  snaps.reserve(array_.size());
  for (cell_index_t i = 0; i < array_.size(); ++i)
    snaps.push_back(array_.cell(i).snapshot());
  return snaps;
}

void SystolicDiffMachine::record_trace(MicroStep step) {
  if (config_.trace) config_.trace->record(counters_.iterations, step, snapshots());
}

void SystolicDiffMachine::note_occupancy() {
  for (cell_index_t i = array_.size(); i-- > 0;) {
    if (!array_.cell(i).empty()) {
      counters_.cells_used =
          std::max<std::uint64_t>(counters_.cells_used, i + 1);
      return;
    }
  }
}

namespace {

/// Shared tail of both systolic_xor overloads: run the (loaded) machine,
/// gather the answer, record per-row telemetry.
SystolicResult finish_systolic_run(SystolicDiffMachine& machine,
                                   const SystolicConfig& config) {
  machine.run();
  SystolicResult result;
  result.output = machine.gather_output();
  result.counters = machine.counters();

  if (telemetry_enabled()) {
    MetricsRegistry& m = global_metrics();
    m.observe("systolic.row_iterations",
              static_cast<double>(result.counters.iterations));
    m.observe("systolic.row_swaps", static_cast<double>(result.counters.swaps));
    m.observe("systolic.row_shifts",
              static_cast<double>(result.counters.shifts));
    m.observe("systolic.row_cells_used",
              static_cast<double>(result.counters.cells_used));
    // The paper's (unproven) Observation bound, iterations <= k3 + 1, where
    // k3 counts runs in the *raw* machine output; canonicalisation can only
    // shrink the count, so the check is meaningful on raw output only.
    if (!config.canonicalize_output &&
        result.counters.iterations > result.output.run_count() + 1)
      m.add("systolic.obs_bound_violations");
  }
  return result;
}

}  // namespace

SystolicResult systolic_xor(const RleRow& a, const RleRow& b,
                            const SystolicConfig& config) {
  SystolicDiffMachine machine(a, b, config);
  return finish_systolic_run(machine, config);
}

SystolicResult systolic_xor(const RleRow& a, const RleRow& b,
                            const SystolicConfig& config,
                            SystolicDiffMachine& workspace) {
  workspace.load(a, b, config);
  return finish_systolic_run(workspace, config);
}

}  // namespace sysrle
