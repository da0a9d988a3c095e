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
//   drain       stop admitting, finish queued + in-flight work, deliver
//               every response, flush telemetry gauges.
//
// Failure handling has one policy per layer and none here: checked_xor's
// bounded retries plus sequential fallback inside the engine, and the
// shard router's per-replica breaker across replicas (replica_set.hpp).  A
// kFailed response is reported, not acted on.
//
// Counts live only in ServiceStats.  The metrics registry carries what no
// stats field holds (docs/OBSERVABILITY.md): the service.queue_depth
// gauges and the service.queue_wait_us, service.latency_us.<priority>
// distributions.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/checked_diff.hpp"
#include "service/admission_queue.hpp"
#include "service/types.hpp"

namespace sysrle {

/// Service shape and policies.
struct ServiceConfig {
  /// Worker threads.  0 = auto, resolved by the same rule as the row
  /// executor (RowExecutor::resolve_threads): hardware_concurrency with
  /// "unknown" treated as 1, capped at kMaxThreads.
  std::size_t workers = 2;
  AdmissionConfig admission;

  /// Recovery policy for checked mode, passed to checked_xor unchanged.
  RecoveryPolicy recovery;
  /// Run rows through checked_xor (checkers + watchdog + bounded retries).
  /// Off: the engine from ServiceRequest::options runs bare, still with the
  /// per-row sequential fallback of StreamDiffer.
  bool use_checked_engine = false;
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
  std::uint64_t shed_shutdown = 0;
  std::uint64_t shed_deadline_at_submit = 0;

  // Post-admission sheds (delivered as kRejected responses).
  std::uint64_t shed_deadline_after_admit = 0;
  /// Always 0; kept for the benchmark schema.
  std::uint64_t cancelled = 0;

  std::uint64_t deadline_misses = 0;  ///< all deadline-expired outcomes
  /// Requests that actually entered the engine row loop.  The result cache
  /// asserts its contract against this: a cache hit must not move it.
  std::uint64_t engine_invocations = 0;
  std::uint64_t fallback_rows = 0;
  std::uint64_t unrecovered_rows = 0;

  /// Field-wise sum: the one way replica and fleet totals are built.
  ServiceStats& operator+=(const ServiceStats& o);

  std::uint64_t shed_total() const {
    return shed_queue_full + shed_shutdown + shed_deadline_at_submit +
           shed_deadline_after_admit;
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
  std::size_t queue_depth() const { return queue_.depth(); }

 private:
  void worker_loop();
  void process(AdmissionQueue::Item item);
  void respond(ServiceResponse response);

  ServiceConfig config_;
  Completion on_complete_;
  AdmissionQueue queue_;

  std::atomic<bool> draining_{false};
  std::once_flag drain_once_;

  // Stats (atomics: workers and submitters update concurrently).
  std::atomic<std::uint64_t> offered_{0}, admitted_{0}, completed_{0},
      failed_{0}, shed_queue_full_{0}, shed_shutdown_{0},
      shed_deadline_at_submit_{0}, shed_deadline_after_admit_{0},
      deadline_misses_{0}, engine_invocations_{0}, fallback_rows_{0},
      unrecovered_rows_{0};

  std::vector<std::thread> workers_;
};

}  // namespace sysrle
