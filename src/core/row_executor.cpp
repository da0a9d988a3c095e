#include "core/row_executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace sysrle {

std::size_t RowRunStats::threads_used() const {
  std::size_t used = 0;
  for (const std::uint64_t rows : rows_per_slot)
    if (rows > 0) ++used;
  return used;
}

std::uint64_t RowRunStats::parallel_rows() const {
  std::uint64_t rows = 0;
  for (std::size_t s = 1; s < rows_per_slot.size(); ++s)
    rows += rows_per_slot[s];
  return rows;
}

/// One run() in flight.  The atomic cursors are the scheduling and
/// completion state; slot assignment and the error stay under the pool mutex.
struct RowExecutor::Job {
  /// Claims per participant the grain aims at: several, so skewed row costs
  /// and late-waking helpers even out, and no more, so the shared cursor
  /// stays cold on tall images.
  static constexpr std::size_t kClaimsPerSlot = 8;

  const RowFn* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t max_slots = 1;

  std::atomic<std::size_t> next{0};      ///< first unclaimed index
  std::atomic<std::size_t> finished{0};  ///< indices run or abandoned

  // Guarded by RowExecutor::mu_.
  std::size_t slots_taken = 1;         ///< slot 0 is the caller's
  std::exception_ptr error;

  /// Written at a participant's unique slot index before each of its
  /// claims counts in `finished`; read by the caller once it reaches n.
  std::vector<std::uint64_t> rows_per_slot;
};

RowExecutor::RowExecutor(RowExecutorConfig config)
    : auto_parallelism_(resolve_threads(config.threads)) {}

RowExecutor::~RowExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t RowExecutor::resolve_threads(std::size_t requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(hw, kMaxThreads);
}

RowExecutor& RowExecutor::global() {
  static RowExecutor executor;
  return executor;
}

std::size_t RowExecutor::plan_slots(std::size_t n,
                                    std::size_t max_parallelism) const {
  const std::size_t limit = max_parallelism == 0
                                ? auto_parallelism_
                                : std::min(max_parallelism, kMaxThreads);
  return std::min(limit, n);
}

RowRunStats RowExecutor::run(std::size_t n, const RowFn& fn,
                             std::size_t max_parallelism) {
  RowRunStats stats;
  if (n == 0) return stats;
  const std::size_t slots = plan_slots(n, max_parallelism);

  if (slots <= 1) {
    // Serial fast path: no pool traffic, no wakeups.
    stats.rows_per_slot.assign(1, 0);
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    stats.rows_per_slot[0] = n;
    return stats;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->grain = std::max<std::size_t>(1, n / (slots * Job::kClaimsPerSlot));
  job->max_slots = slots;
  job->rows_per_slot.assign(slots, 0);

  {
    std::lock_guard<std::mutex> lk(mu_);
    ensure_workers(slots - 1);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  execute(*job, 0);  // the caller is participant 0

  // Every index is claimed: whoever finishes the last one wakes us.  A helper
  // joining later finds the cursor spent and touches only the job it shares.
  for (std::size_t f; (f = job->finished.load(std::memory_order_acquire)) < n;)
    job->finished.wait(f, std::memory_order_acquire);
  if (job->error) std::rethrow_exception(job->error);
  stats.rows_per_slot = std::move(job->rows_per_slot);
  return stats;
}

void RowExecutor::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
    if (stop_) return;
    std::shared_ptr<Job> job = jobs_.front();
    if (job->slots_taken >= job->max_slots ||
        job->next.load(std::memory_order_relaxed) >= job->n) {
      unlist(job);  // stale entry; re-examine the queue
      continue;
    }
    const std::size_t slot = job->slots_taken++;
    if (job->slots_taken >= job->max_slots) unlist(job);
    lk.unlock();
    execute(*job, slot);
    lk.lock();
  }
}

void RowExecutor::execute(Job& job, std::size_t slot) {
  std::uint64_t done = 0;
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) return;
    const std::size_t end = std::min(begin + job.grain, job.n);
    std::size_t count = end - begin;
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i, slot);
      job.rows_per_slot[slot] = done += count;
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!job.error) job.error = std::current_exception();
      // Abandon every unclaimed index, counted with this claim's rest.
      const std::size_t rest = job.next.exchange(job.n);
      if (rest < job.n) count += job.n - rest;
    }
    // Whoever finishes the last index wakes the caller.
    if (job.finished.fetch_add(count, std::memory_order_acq_rel) + count ==
        job.n)
      job.finished.notify_all();
  }
}

void RowExecutor::ensure_workers(std::size_t helpers) {
  const std::size_t target = std::min(helpers, kMaxThreads - 1);
  while (workers_.size() < target)
    workers_.emplace_back([this] { worker_loop(); });
}

void RowExecutor::unlist(const std::shared_ptr<Job>& job) {
  const auto it = std::find(jobs_.begin(), jobs_.end(), job);
  if (it != jobs_.end()) jobs_.erase(it);
}

}  // namespace sysrle
