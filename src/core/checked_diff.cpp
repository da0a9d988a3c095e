#include "core/checked_diff.hpp"

#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "core/image_diff.hpp"
#include "core/invariants.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

const char* to_string(RecoveryOutcome outcome) {
  switch (outcome) {
    case RecoveryOutcome::kCleanFirstTry:
      return "clean";
    case RecoveryOutcome::kRecoveredByRetry:
      return "recovered-by-retry";
    case RecoveryOutcome::kFellBack:
      return "fell-back";
    case RecoveryOutcome::kUnrecovered:
      return "unrecovered";
  }
  return "unknown";
}

bool RecoveryRecord::faulty() const {
  for (const AttemptRecord& a : attempts)
    if (a.detected || a.timed_out) return true;
  return false;
}

namespace {

/// Watchdog bound per attempt: 2*(k1+k2) plus this many cycles.
constexpr cycle_t kWatchdogSlack = 4;

/// Runs one systolic attempt to completion, watchdog and checkers armed.
/// Returns the gathered output when the attempt is accepted.
std::optional<RleRow> run_attempt(const RleRow& a, const RleRow& b,
                                  const FaultSpec& fault,
                                  FaultArbiter* arbiter,
                                  const InvariantContext& ctx,
                                  cycle_t watchdog, AttemptRecord& rec) {
  FaultyDiffMachine machine(a, b, fault);
  while (true) {
    const bool active = arbiter ? arbiter->next() : false;
    if (machine.terminated(active)) break;
    if (machine.iterations() >= watchdog) {
      rec.timed_out = true;
      rec.diagnostic = "watchdog: no termination within 2*(k1+k2)+slack";
      rec.iterations = machine.iterations();
      return std::nullopt;
    }
    machine.step(active);
    rec.iterations = machine.iterations();
    try {
      check_end_of_iteration(machine.array(), ctx, machine.iterations());
    } catch (const contract_error& e) {
      rec.detected = true;
      rec.diagnostic = e.what();
      return std::nullopt;
    }
  }

  // Termination reached: validate the final state and the gathered row.  A
  // stuck-high completion line can stop the machine early with live RegBig
  // runs — check_final_state catches exactly that.
  try {
    check_final_state(machine.array(), ctx);
    return machine.gather_output();
  } catch (const contract_error& e) {
    rec.detected = true;
    rec.diagnostic = e.what();
    return std::nullopt;
  }
}

/// Folds one finished row's recovery record into the global registry.
void record_checked_telemetry(const CheckedRowResult& result) {
  MetricsRegistry& m = global_metrics();
  m.add("checked.rows");
  const std::size_t attempts = result.record.attempts.size();
  if (attempts > 1) m.add("checked.retries", attempts - 1);
  for (const AttemptRecord& rec : result.record.attempts) {
    if (rec.detected) m.add("checked.detections");
    if (rec.timed_out) m.add("checked.watchdog_trips");
  }
  if (result.record.outcome == RecoveryOutcome::kFellBack)
    m.add("checked.fallbacks");
  if (result.record.outcome == RecoveryOutcome::kUnrecovered)
    m.add("checked.unrecovered");
  m.observe("checked.row_total_cycles",
            static_cast<double>(result.record.total_cycles));
}

CheckedRowResult checked_xor_impl(const RleRow& a, const RleRow& b,
                                  bool canonicalize,
                                  const RecoveryPolicy& policy,
                                  const FaultInjection& injection) {
  SYSRLE_REQUIRE(policy.max_retries >= 0,
                 "checked_xor: negative max_retries");
  const InvariantContext ctx = make_invariant_context(a, b);
  const cycle_t watchdog =
      2 * static_cast<cycle_t>(a.run_count() + b.run_count()) +
      kWatchdogSlack;

  // The arbiter's global cycle clock must span all attempts so a transient
  // window fires once, not once per retry.
  const FaultSpec benign{};
  const FaultSpec& fault = injection.spec ? *injection.spec : benign;
  std::optional<FaultArbiter> local;
  FaultArbiter* arbiter = injection.arbiter;
  if (injection.spec && !arbiter) {
    local.emplace(*injection.spec);
    arbiter = &*local;
  }

  CheckedRowResult result;
  const int attempts_allowed = 1 + policy.max_retries;
  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    AttemptRecord rec;
    std::optional<RleRow> out =
        run_attempt(a, b, fault, injection.spec ? arbiter : nullptr, ctx,
                    watchdog, rec);
    result.record.total_cycles += rec.iterations;
    result.record.attempts.push_back(std::move(rec));
    if (out) {
      result.output = std::move(*out);
      if (canonicalize) result.output.canonicalize();
      result.record.outcome = attempt == 0
                                  ? RecoveryOutcome::kCleanFirstTry
                                  : RecoveryOutcome::kRecoveredByRetry;
      return result;
    }
  }

  if (policy.fallback_to_sequential) {
    // The sequential comparator shares no datapath with the array; a cell
    // defect cannot reach it.
    SequentialDiffResult seq = sequential_row(a, b, canonicalize);
    result.output = std::move(seq.output);
    result.record.fallback_iterations = seq.iterations;
    result.record.outcome = RecoveryOutcome::kFellBack;
    return result;
  }

  result.record.outcome = RecoveryOutcome::kUnrecovered;
  return result;
}

}  // namespace

CheckedRowResult checked_xor(const RleRow& a, const RleRow& b,
                             bool canonicalize, const RecoveryPolicy& policy,
                             const FaultInjection& injection) {
  TELEMETRY_SPAN("checked.row", "checked");
  CheckedRowResult result =
      checked_xor_impl(a, b, canonicalize, policy, injection);
  if (telemetry_enabled()) record_checked_telemetry(result);
  return result;
}

}  // namespace sysrle
