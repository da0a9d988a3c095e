#pragma once
// Native row-parallel execution: a persistent std::thread pool with dynamic
// scheduling, built for the image-level diff loop.
//
// The paper's systolic array gets its speed from row independence; the
// software hot path must too, with no parallel runtime to depend on.
// RowExecutor is that guarantee: plain std::thread workers parked on a
// condition variable, woken per run() to claim index ranges from a shared
// atomic cursor (`#pragma omp for schedule(dynamic, grain)` in software).
// Each run derives its grain from its size, about 8 claims per participant:
// a 48-row image on 4 participants claims a row at a time, so a helper that
// wakes late still finds work; a 2048-row image claims 64.
//
// Key properties:
//   * caller participation — the thread calling run() works too (slot 0),
//     so a 1-thread run never pays a handoff;
//   * per-slot identity — the body receives a dense slot index, letting
//     callers keep one scratch workspace (e.g. a SystolicDiffMachine whose
//     cell storage is recycled across rows) per participant with no
//     synchronisation;
//   * deterministic results — scheduling only decides *who* computes an
//     index, never *what*; callers write outcomes into per-index slots and
//     aggregate serially, so output is bit-identical to a serial run;
//   * completion at the last index — participants count finished indices
//     in one atomic, and whoever finishes the last wakes the caller, so
//     run() does not wait for helpers to retire; a helper that joins late
//     finds the cursor spent and touches only the job it shares;
//   * exception safety — a throwing body takes the rest of the cursor and
//     counts it as abandoned, the first exception is rethrown on the
//     caller, and the pool stays usable;
//   * demand growth — explicit parallelism requests beyond the auto sizing
//     (e.g. `--threads 8` on a 2-core box) spawn the extra workers, capped
//     at kMaxThreads, so oversubscription is the caller's call, not a
//     silent clamp.
//
// One process-wide pool (global()); per-call parallelism is limited through
// run()'s max_parallelism, which is also how a caller keeps work too small
// to wake helpers on itself (image_diff's row_parallelism).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sysrle {

/// Pool shape.
struct RowExecutorConfig {
  /// Worker parallelism for max_parallelism == 0 runs: 0 = auto, i.e.
  /// std::thread::hardware_concurrency() with 0 treated as 1.
  std::size_t threads = 0;
};

/// Who ran what in one run(): rows_per_slot[s] counts the indices executed
/// by participant s (slot 0 is always the calling thread).
struct RowRunStats {
  std::vector<std::uint64_t> rows_per_slot;

  /// Participants that processed at least one index (0 for an empty run).
  std::size_t threads_used() const;

  /// Indices processed by helper threads — 0 means the run was effectively
  /// serial, which is exactly the signal a silent-serial fallback hides.
  std::uint64_t parallel_rows() const;
};

/// Persistent worker pool with dynamic scheduling.
class RowExecutor {
 public:
  /// `fn(index, slot)`: slot is dense in [0, plan_slots(...)) and unique
  /// per participant within one run.
  using RowFn = std::function<void(std::size_t index, std::size_t slot)>;

  /// Hard ceiling on parallelism, protecting against `--threads 1000000`.
  static constexpr std::size_t kMaxThreads = 256;

  explicit RowExecutor(RowExecutorConfig config = {});

  /// Joins all workers.  Precondition: no run() is in flight.
  ~RowExecutor();

  RowExecutor(const RowExecutor&) = delete;
  RowExecutor& operator=(const RowExecutor&) = delete;

  /// The pool's auto parallelism (caller included): what a
  /// max_parallelism == 0 run may use.
  std::size_t thread_count() const { return auto_parallelism_; }

  /// The participants a run with these parameters admits, at most one per
  /// index — size per-slot scratch with this.  Deterministic for fixed
  /// arguments; 0 only when n == 0.
  std::size_t plan_slots(std::size_t n, std::size_t max_parallelism = 0) const;

  /// Runs fn over [0, n) with dynamic scheduling, claiming
  /// max(1, n / (8 * plan_slots(n, max_parallelism))) indices per grab.
  /// max_parallelism limits participants for this run (0 = the pool's auto
  /// sizing; values above the current pool size grow it, up to
  /// kMaxThreads).  Returns when every index has executed; rethrows the
  /// first exception a body threw (unclaimed indices are abandoned, the pool
  /// stays usable).  Thread-safe: concurrent run() calls share the workers.
  RowRunStats run(std::size_t n, const RowFn& fn,
                  std::size_t max_parallelism = 0);

  /// The one thread-count resolution rule (shared by the CLI, the service
  /// and the pool itself): requested > 0 is honoured (capped at
  /// kMaxThreads); 0 means hardware_concurrency(), with the standard's
  /// "0 = unknown" treated as 1 so parallelism never silently vanishes.
  static std::size_t resolve_threads(std::size_t requested);

  /// The process-wide pool (auto-sized, created on first use).
  static RowExecutor& global();

 private:
  struct Job;

  void worker_loop();
  void execute(Job& job, std::size_t slot);
  /// Spawns workers until `helpers` exist.  Caller holds mu_.
  void ensure_workers(std::size_t helpers);
  /// Removes `job` from the pending deque if present.  Caller holds mu_.
  void unlist(const std::shared_ptr<Job>& job);

  std::size_t auto_parallelism_ = 1;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for jobs
  std::deque<std::shared_ptr<Job>> jobs_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace sysrle
