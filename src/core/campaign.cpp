#include "core/campaign.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "rle/ops.hpp"
#include "workload/rng.hpp"

namespace sysrle {

CampaignCounts& CampaignCounts::operator+=(const CampaignCounts& o) {
  trials += o.trials;
  clean += o.clean;
  detected += o.detected;
  recovered_by_retry += o.recovered_by_retry;
  fell_back += o.fell_back;
  unrecovered += o.unrecovered;
  silent_corruptions += o.silent_corruptions;
  wasted_cycles += o.wasted_cycles;
  return *this;
}

namespace {

/// Runs one trial and folds its outcome into `counts`.
void run_trial(const RleRow& ra, const RleRow& rb, const RleRow& truth,
               const FaultSpec& spec, const RecoveryPolicy& policy,
               CampaignCounts& counts) {
  FaultArbiter arbiter(spec);
  FaultInjection injection{&spec, &arbiter};
  const CheckedRowResult r = checked_xor(ra, rb, false, policy, injection);

  ++counts.trials;
  if (r.record.faulty()) ++counts.detected;
  switch (r.record.outcome) {
    case RecoveryOutcome::kCleanFirstTry:
      if (!r.record.faulty()) ++counts.clean;
      break;
    case RecoveryOutcome::kRecoveredByRetry:
      ++counts.recovered_by_retry;
      break;
    case RecoveryOutcome::kFellBack:
      ++counts.fell_back;
      break;
    case RecoveryOutcome::kUnrecovered:
      ++counts.unrecovered;
      break;
  }
  if (r.record.ok() && r.output.canonical() != truth.canonical())
    ++counts.silent_corruptions;
  // Cycles beyond the accepted attempt were the price of recovery.
  if (!r.record.attempts.empty()) {
    const cycle_t useful = r.record.outcome == RecoveryOutcome::kFellBack ||
                                   r.record.outcome ==
                                       RecoveryOutcome::kUnrecovered
                               ? 0
                               : r.record.attempts.back().iterations;
    counts.wasted_cycles += r.record.total_cycles - useful;
  }
}

}  // namespace

CampaignResult run_fault_campaign(const RleImage& a, const RleImage& b,
                                  const CampaignConfig& config) {
  SYSRLE_REQUIRE(a.width() == b.width() && a.height() == b.height(),
                 "run_fault_campaign: image dimensions differ");
  SYSRLE_REQUIRE(config.cell_stride >= 1,
                 "run_fault_campaign: cell_stride must be >= 1");

  const std::vector<FaultKind> kinds =
      config.kinds.empty()
          ? std::vector<FaultKind>{FaultKind::kNoSwap,
                                   FaultKind::kCorruptXorEnd,
                                   FaultKind::kDropShift,
                                   FaultKind::kStuckCompleteHigh}
          : config.kinds;
  const std::vector<FaultActivation> activations =
      config.activations.empty()
          ? std::vector<FaultActivation>{FaultActivation::kPermanent,
                                         FaultActivation::kTransient,
                                         FaultActivation::kIntermittent}
          : config.activations;

  CampaignResult result;
  for (const FaultKind kind : kinds)
    for (const FaultActivation activation : activations)
      result.groups.push_back({kind, activation, {}});

  Rng rng(config.seed);
  for (pos_t y = 0; y < a.height(); ++y) {
    const RleRow& ra = a.row(y);
    const RleRow& rb = b.row(y);
    const RleRow truth = xor_rows(ra, rb);  // independent ground truth
    const std::size_t cells = ra.run_count() + rb.run_count() + 1;
    const cycle_t budget =
        static_cast<cycle_t>(ra.run_count() + rb.run_count());

    std::size_t group = 0;
    for (const FaultKind kind : kinds) {
      for (const FaultActivation activation : activations) {
        CampaignCounts& counts = result.groups[group++].counts;
        for (cell_index_t cell = 0; cell < cells;
             cell += config.cell_stride) {
          FaultSpec spec;
          spec.kind = kind;
          spec.cell = cell;
          spec.activation = activation;
          // Transient glitches land somewhere inside the Theorem-1 budget;
          // intermittent contacts flip a fair-ish coin with its own seed.
          spec.window_start = static_cast<cycle_t>(
              rng.uniform(1, std::max<std::int64_t>(
                                 1, static_cast<std::int64_t>(budget))));
          spec.window_length = static_cast<cycle_t>(rng.uniform(1, 3));
          spec.probability = 0.25 + 0.5 * rng.uniform01();
          spec.seed = rng.next_u64();
          run_trial(ra, rb, truth, spec, config.policy, counts);
        }
      }
    }
  }

  for (const CampaignResult::Group& g : result.groups)
    result.total += g.counts;
  return result;
}

}  // namespace sysrle
