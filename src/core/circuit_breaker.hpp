#pragma once
// Circuit breaker: stop sending work to a backend that keeps failing.
//
// The farm re-dispatches a failed row to another machine, which is the right
// call for a one-off glitch — but a machine with a permanent defect fails
// every row it touches, and re-dispatch alone turns it into a cycle sink
// that keeps burning a full service time per row before each failure is
// detected.  The breaker is the classic three-state answer: after
// `failure_threshold` consecutive failures the machine is *open* (receives
// nothing), after `open_duration` time units one *half-open* probe is
// admitted, and that probe's success closes it again.
//
// Time is a caller-supplied monotonic counter so the same state machine
// serves both the farm simulation (systolic cycles) and the real-time
// serving layer (microseconds since service start).  Transitions are
// published to the PR 2 metrics registry under
// "service.breaker_state.<name>" when the breaker is named and telemetry is
// enabled; docs/ROBUSTNESS.md has the state diagram.

#include <cstdint>
#include <string>

namespace sysrle {

/// Breaker position.  Numeric values are the published gauge encoding.
enum class BreakerState : int {
  kClosed = 0,    ///< healthy: all work admitted
  kOpen = 1,      ///< tripped: nothing admitted until the open window ends
  kHalfOpen = 2,  ///< probing: one trial job admitted at a time
};

/// Human-readable state name.
const char* to_string(BreakerState state);

/// When to trip and how to re-admit.
struct BreakerPolicy {
  /// Consecutive failures that open a closed breaker.
  int failure_threshold = 3;

  /// Time units (caller's clock) the breaker stays open before it admits a
  /// half-open probe.
  std::uint64_t open_duration = 256;
};

/// Three-state breaker driven by an external monotonic clock.  Not
/// thread-safe; callers that share one (the serving layer) hold their own
/// lock around the whole admit/record sequence.
class CircuitBreaker {
 public:
  /// `metric_name` (optional) keys the published gauge
  /// "service.breaker_state.<metric_name>"; empty disables publishing.
  explicit CircuitBreaker(BreakerPolicy policy = {},
                          std::string metric_name = {});

  /// True when a job may be sent now.  An open breaker whose window has
  /// elapsed transitions to half-open and admits one probe; further calls
  /// are refused until that probe reports or is released.
  bool allow(std::uint64_t now);

  /// Reports a job outcome observed at time `now`.  Success in half-open
  /// closes; failure anywhere re-arms the breaker (closed: counts toward
  /// the threshold; half-open: re-opens).
  void record_success(std::uint64_t now);
  void record_failure(std::uint64_t now);

  /// Returns the probe slot taken by allow() when the job produced *no*
  /// outcome — it was shed at the queue, or its deadline expired before the
  /// backend ran.  Without this, an abandoned half-open probe stays in
  /// flight and allow() refuses everything forever.
  /// Tells the breaker nothing about backend health: no state change, no
  /// success/failure accounting.
  void release_probe();

  BreakerState state() const { return state_; }
  /// Earliest time a probe can be admitted (only meaningful while open);
  /// schedulers use it to know when a tripped backend is worth revisiting.
  std::uint64_t reopen_at() const { return opened_at_ + policy_.open_duration; }
  /// Total state changes (closed->open, open->half-open, ...).
  std::uint64_t transitions() const { return transitions_; }
  /// Consecutive failures seen while closed.
  int consecutive_failures() const { return consecutive_failures_; }
  const std::string& name() const { return metric_name_; }

 private:
  void transition(BreakerState next);
  void publish() const;

  BreakerPolicy policy_;
  std::string metric_name_;
  BreakerState state_ = BreakerState::kClosed;
  std::uint64_t opened_at_ = 0;
  std::uint64_t transitions_ = 0;
  int consecutive_failures_ = 0;
  bool probing_ = false;  ///< half-open probe admitted, no outcome yet
};

}  // namespace sysrle
