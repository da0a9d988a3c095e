#pragma once
// DiffService: the overload-safe front door to the diff engines.
//
// Wraps the existing row engines (systolic / bus / sequential — and
// checked_xor when checked mode is on) behind a concurrent request executor
// with the serving-side protections production RLE pipelines rely on:
//
//   admission   bounded two-class queue, typed load shedding (never a
//               silent drop: offered == admitted + shed, and every admitted
//               request gets exactly one response);
//   deadlines   propagated into the engine — checked at dequeue and between
//               rows, so an expired request stops consuming machine cycles
//               mid-image;
//   retries     the shared token-bucket RetryBudget gates every checked-
//               engine retry, with exponential backoff + seeded jitter;
//   breaker     a service-level circuit breaker opens after consecutive
//               request failures and rejects with Rejected{circuit_open}
//               until a half-open probe succeeds (per-machine breakers live
//               in core/machine_farm);
//   drain       stop admitting, finish queued + in-flight work, deliver
//               every response, flush telemetry gauges.
//
// Metrics (docs/OBSERVABILITY.md): service.queue_depth,
// service.shed_total.<reason>, service.deadline_miss_total,
// service.retry_budget_exhausted_total, service.breaker_state.service,
// service.queue_wait_us, service.latency_us.{interactive,batch}.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/checked_diff.hpp"
#include "core/circuit_breaker.hpp"
#include "service/admission_queue.hpp"
#include "service/retry_budget.hpp"
#include "service/types.hpp"

namespace sysrle {

/// Service shape and policies.
struct ServiceConfig {
  /// Worker threads.  0 = auto, resolved by the same rule as the row
  /// executor (RowExecutor::resolve_threads): hardware_concurrency with
  /// "unknown" treated as 1, capped at kMaxThreads.
  std::size_t workers = 2;
  AdmissionConfig admission;
  RetryBudgetConfig retry_budget;
  BackoffPolicy backoff;

  /// Recovery policy for checked mode; its retry_gate is overwritten per
  /// request with the budget+deadline gate.
  RecoveryPolicy recovery;
  /// Run rows through checked_xor (checkers + watchdog + gated retries).
  /// Off: the engine from ServiceRequest::options runs bare, still with the
  /// per-row sequential fallback of StreamDiffer.
  bool use_checked_engine = false;

  /// Service-level breaker over request failures (kFailed responses).
  BreakerPolicy breaker{.failure_threshold = 3,
                        .open_duration = 50000,  // µs of service uptime
                        .probe_successes_to_close = 1};

  /// Seeds backoff jitter and batch early-shed sampling; equal seeds give
  /// byte-identical retry/shed behaviour (docs/TESTING.md).
  std::uint64_t seed = 42;
};

/// Monotonic counters over the service lifetime (one snapshot, coherent
/// enough for accounting: offered == admitted + shed_submit_* always holds
/// after drain()).
struct ServiceStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  // Submit-time sheds (returned synchronously, no response delivered).
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_circuit_open = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t shed_deadline_at_submit = 0;

  // Post-admission sheds (delivered as kRejected responses).
  std::uint64_t shed_deadline_after_admit = 0;
  /// Always 0; kept for the benchmark schema.
  std::uint64_t cancelled = 0;

  std::uint64_t deadline_misses = 0;  ///< all deadline-expired outcomes
  std::uint64_t retries = 0;          ///< budgeted retries actually taken
  /// Requests that actually entered the engine row loop.  The result cache
  /// asserts its contract against this: a cache hit must not move it.
  std::uint64_t engine_invocations = 0;
  std::uint64_t retry_budget_exhausted = 0;
  std::uint64_t fallback_rows = 0;
  std::uint64_t unrecovered_rows = 0;

  std::uint64_t shed_total() const {
    return shed_queue_full + shed_circuit_open + shed_shutdown +
           shed_deadline_at_submit + shed_deadline_after_admit;
  }
  std::uint64_t responses() const {
    return completed + failed + shed_deadline_after_admit;
  }
};

/// Concurrent request executor.  Responses are delivered on worker threads
/// through the completion callback; the callback must be thread-safe.
class DiffService {
 public:
  using Completion = std::function<void(ServiceResponse)>;

  DiffService(ServiceConfig config, Completion on_complete);
  /// Drains (finishing queued and in-flight work) if not already drained.
  ~DiffService();

  DiffService(const DiffService&) = delete;
  DiffService& operator=(const DiffService&) = delete;

  /// Admits or sheds the request.  Returns std::nullopt when admitted (a
  /// response will follow), the typed rejection otherwise (no response).
  std::optional<RejectReason> try_submit(ServiceRequest request);

  /// Graceful shutdown: stop admitting, finish queued + in-flight requests,
  /// join workers, flush telemetry gauges.  Idempotent.
  void drain();

  ServiceStats stats() const;
  BreakerState breaker_state() const;
  std::size_t queue_depth() const { return queue_.depth(); }
  const RetryBudget& retry_budget() const { return budget_; }

 private:
  void worker_loop();
  void process(AdmissionQueue::Item item);
  void respond(ServiceResponse response);
  /// Microseconds since service construction (the breaker's clock).
  std::uint64_t now_us() const;

  ServiceConfig config_;
  Completion on_complete_;
  AdmissionQueue queue_;
  RetryBudget budget_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex breaker_mu_;
  CircuitBreaker breaker_;

  std::atomic<bool> draining_{false};
  std::once_flag drain_once_;

  // Stats (atomics: workers and submitters update concurrently).
  std::atomic<std::uint64_t> offered_{0}, admitted_{0}, completed_{0},
      failed_{0}, shed_queue_full_{0}, shed_circuit_open_{0},
      shed_shutdown_{0}, shed_deadline_at_submit_{0},
      shed_deadline_after_admit_{0}, deadline_misses_{0},
      retries_{0}, engine_invocations_{0}, fallback_rows_{0},
      unrecovered_rows_{0};

  std::vector<std::thread> workers_;
};

}  // namespace sysrle
