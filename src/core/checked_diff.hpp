#pragma once
// Fault-tolerant execution wrapper around the systolic row engine.
//
// core/faults turns the paper's correctness theorems into detectors; this
// module adds recovery.  checked_xor runs the row on the systolic machine
// with the section-4 invariant checkers armed every iteration and a watchdog
// at 2*(k1+k2)+4 cycles (double the Theorem-1 budget, plus slack).  On a
// detected fault or a watchdog timeout it retries up to N times — a
// transient fault clears, an intermittent one gets fresh coin flips — and
// finally falls back to the paper's sequential merge comparator, which
// shares no datapath with the array.  Every row's journey is recorded in a
// RecoveryRecord so a fleet operator can see what the machine survived.
//
// Note on checking cost: the Theorem-3 conservation checker needs the
// expected XOR, which a hardware controller would fold from the load-time
// array state in O(k); the simulator computes it the same way (sequentially
// from the inputs).  bench_resilience quantifies the total overhead.

#include <string>
#include <vector>

#include "core/faults.hpp"
#include "rle/rle_row.hpp"

namespace sysrle {

/// Retry/fallback policy of the checked engine.
struct RecoveryPolicy {
  /// Re-runs of the systolic machine after a detected fault or timeout.
  int max_retries = 2;

  /// When every systolic attempt fails, compute the row on the sequential
  /// merge engine instead of giving up.
  bool fallback_to_sequential = true;
};

/// How a row ultimately got computed.
enum class RecoveryOutcome {
  kCleanFirstTry,     ///< first systolic attempt accepted
  kRecoveredByRetry,  ///< a retry succeeded after a detection
  kFellBack,          ///< the sequential merge engine produced the row
  kUnrecovered,       ///< everything failed (fallback disabled)
};

/// Human-readable outcome name.
const char* to_string(RecoveryOutcome outcome);

/// One systolic attempt's fate.
struct AttemptRecord {
  bool detected = false;   ///< an invariant checker threw
  bool timed_out = false;  ///< the watchdog expired
  cycle_t iterations = 0;  ///< cycles this attempt ran
  std::string diagnostic;  ///< first checker message, empty when clean
};

/// Per-row account of detection and recovery.
struct RecoveryRecord {
  RecoveryOutcome outcome = RecoveryOutcome::kCleanFirstTry;
  std::vector<AttemptRecord> attempts;
  /// Systolic cycles burned across all attempts, including failed ones.
  cycle_t total_cycles = 0;
  /// Merge iterations of the fallback engine (0 unless kFellBack).
  std::uint64_t fallback_iterations = 0;

  /// True when the row was computed by someone.
  bool ok() const { return outcome != RecoveryOutcome::kUnrecovered; }
  /// True when any attempt saw a detection or timeout.
  bool faulty() const;
  /// Retries actually taken (attempts beyond the first).
  std::size_t retries() const {
    return attempts.empty() ? 0 : attempts.size() - 1;
  }
};

/// Output of the checked engine for one row.
struct CheckedRowResult {
  /// The XOR of the two input rows; empty when record.ok() is false.
  RleRow output;
  RecoveryRecord record;
};

/// Test/campaign hook: wires one fault into every systolic attempt.  The
/// arbiter owns the global cycle clock shared by all attempts; when null, a
/// private one is created per call (so a transient window still only fires
/// once across that call's retries).
struct FaultInjection {
  const FaultSpec* spec = nullptr;
  FaultArbiter* arbiter = nullptr;
};

/// Runs the systolic XOR with checkers armed, watchdog set, and the
/// RecoveryPolicy applied.  `canonicalize` merges adjacent runs in the
/// accepted output, whichever engine produced it (as sequential_row's flag
/// does).  Never throws on a detected machine fault — that is the point —
/// but still throws contract_error on caller errors (e.g. a negative
/// max_retries).
CheckedRowResult checked_xor(const RleRow& a, const RleRow& b,
                             bool canonicalize,
                             const RecoveryPolicy& policy = {},
                             const FaultInjection& injection = {});

}  // namespace sysrle
