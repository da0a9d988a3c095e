// Tests for the native row-parallel executor: coverage (every index exactly
// once), slot discipline, thread-count resolution, exception propagation,
// forced parallelism, and a concurrent-callers hammer (run under TSan in CI).

#include "core/row_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sysrle {
namespace {

TEST(RowExecutor, EveryIndexRunsExactlyOnce) {
  RowExecutor pool(RowExecutorConfig{4});
  // 1000 indices on 4 participants claim 31 at a time: the last claim is
  // short.
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  const RowRunStats stats = pool.run(
      kN, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  const std::uint64_t total = std::accumulate(
      stats.rows_per_slot.begin(), stats.rows_per_slot.end(), std::uint64_t{0});
  EXPECT_EQ(total, kN);
  EXPECT_GE(stats.threads_used(), 1u);
}

TEST(RowExecutor, MaxParallelismOneRunsOnCallerOnly) {
  RowExecutor pool(RowExecutorConfig{4});
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  const RowRunStats stats = pool.run(
      ran_on.size(),
      [&](std::size_t i, std::size_t slot) {
        ran_on[i] = std::this_thread::get_id();
        EXPECT_EQ(slot, 0u);
      },
      1);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
  EXPECT_EQ(stats.threads_used(), 1u);
  EXPECT_EQ(stats.parallel_rows(), 0u);
}

TEST(RowExecutor, EmptyAndSingleIndexRuns) {
  RowExecutor pool(RowExecutorConfig{2});
  bool ran = false;
  RowRunStats stats = pool.run(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(stats.threads_used(), 0u);

  std::size_t got = 99;
  stats = pool.run(1, [&](std::size_t i, std::size_t slot) {
    got = i;
    EXPECT_EQ(slot, 0u);  // one index never leaves the caller
  });
  EXPECT_EQ(got, 0u);
  EXPECT_EQ(stats.threads_used(), 1u);
}

TEST(RowExecutor, SlotsAreDenseAndWithinPlan) {
  RowExecutor pool(RowExecutorConfig{4});
  const std::size_t plan = pool.plan_slots(64, 4);
  EXPECT_GE(plan, 1u);
  EXPECT_LE(plan, 4u);
  std::mutex mu;
  std::set<std::size_t> seen;
  pool.run(
      64,
      [&](std::size_t, std::size_t slot) {
        EXPECT_LT(slot, plan);
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(slot);
      },
      4);
  EXPECT_GE(seen.size(), 1u);
}

TEST(RowExecutor, PlanSlotsBoundedByIndexCount) {
  RowExecutor pool(RowExecutorConfig{8});
  // 3 indices admit at most 3 participants: a 4th could never get work.
  EXPECT_LE(pool.plan_slots(3, 8), 3u);
  EXPECT_EQ(pool.plan_slots(0, 8), 0u);
  EXPECT_EQ(pool.plan_slots(1, 8), 1u);
  // A 48-row image (the paper's §5 shape) is claimed about a row at a
  // time, so every participant asked for, auto or explicit, is planned.
  EXPECT_EQ(pool.plan_slots(48), 8u);
  EXPECT_EQ(pool.plan_slots(48, 4), 4u);
  EXPECT_EQ(pool.plan_slots(48, 1), 1u);
}

TEST(RowExecutor, ExceptionPropagatesAndPoolSurvives) {
  RowExecutor pool(RowExecutorConfig{4});
  EXPECT_THROW(
      pool.run(100,
               [](std::size_t i, std::size_t) {
                 if (i == 37) throw std::runtime_error("row 37 failed");
               },
               4),
      std::runtime_error);

  // The pool is reusable after a failed run.
  std::atomic<std::size_t> count{0};
  pool.run(50, [&](std::size_t, std::size_t) { count.fetch_add(1); }, 4);
  EXPECT_EQ(count.load(), 50u);
}

TEST(RowExecutor, ThrowingBodyAbandonsTheRestExactlyOnce) {
  // A throw at one index abandons the unclaimed rest: the run rethrows, no
  // index runs twice, and the next run still executes every index once.
  RowExecutor pool(RowExecutorConfig{4});
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (int repeat = 0; repeat < 200; ++repeat) {
    for (auto& h : hits) h.store(0);
    const std::size_t bad = static_cast<std::size_t>(repeat * 37) % kN;
    EXPECT_THROW(pool.run(
                     kN,
                     [&](std::size_t i, std::size_t) {
                       hits[i].fetch_add(1);
                       if (i == bad) throw std::runtime_error("bad row");
                     },
                     4),
                 std::runtime_error);
    for (std::size_t i = 0; i < kN; ++i) ASSERT_LE(hits[i].load(), 1) << i;
    ASSERT_EQ(hits[bad].load(), 1);

    for (auto& h : hits) h.store(0);
    const RowRunStats stats =
        pool.run(kN, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); },
                 4);
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    ASSERT_EQ(std::accumulate(stats.rows_per_slot.begin(),
                              stats.rows_per_slot.end(), std::uint64_t{0}),
              kN);
  }
}

TEST(RowExecutor, ResolveThreadsRules) {
  EXPECT_GE(RowExecutor::resolve_threads(0), 1u);  // auto is never 0
  EXPECT_EQ(RowExecutor::resolve_threads(1), 1u);
  EXPECT_EQ(RowExecutor::resolve_threads(5), 5u);  // explicit requests honoured
  EXPECT_EQ(RowExecutor::resolve_threads(1000000), RowExecutor::kMaxThreads);
}

TEST(RowExecutor, ForcedParallelismEngagesHelpers) {
  // A barrier inside the body: no participant can finish its first index
  // until all 4 slots have arrived, so the run *must* use 4 threads even on
  // a 1-core machine.  This is the oversubscription guarantee --threads
  // relies on.
  RowExecutor pool(RowExecutorConfig{4});
  constexpr std::size_t kSlots = 4;
  ASSERT_EQ(pool.plan_slots(kSlots, kSlots), kSlots);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  const RowRunStats stats = pool.run(
      kSlots,
      [&](std::size_t, std::size_t) {
        std::unique_lock<std::mutex> lk(mu);
        ++arrived;
        cv.notify_all();
        cv.wait(lk, [&] { return arrived == kSlots; });
      },
      kSlots);
  EXPECT_EQ(stats.threads_used(), kSlots);
  EXPECT_EQ(stats.parallel_rows(), kSlots - 1);
}

TEST(RowExecutor, EveryParticipantWorksOnPaperHeightImage) {
  // Each participant holds its first row until all 4 have one, so the run
  // completes only if the 48 rows are split into at least 4 claims.  The
  // wait is bounded: a schedule that leaves a participant without work
  // fails the test instead of hanging it.
  RowExecutor pool(RowExecutorConfig{4});
  constexpr std::size_t kSlots = 4;
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::size_t> arrived;
  bool all_arrived = true;
  const RowRunStats stats = pool.run(
      48,
      [&](std::size_t, std::size_t slot) {
        std::unique_lock<std::mutex> lk(mu);
        if (!arrived.insert(slot).second) return;
        cv.notify_all();
        if (!cv.wait_for(lk, std::chrono::seconds(10),
                         [&] { return arrived.size() == kSlots; }))
          all_arrived = false;
      },
      kSlots);
  EXPECT_TRUE(all_arrived);
  EXPECT_EQ(stats.threads_used(), kSlots);
}

TEST(RowExecutor, ConcurrentCallersShareThePool) {
  // Several threads issue run() against one pool at once — the service's
  // usage pattern.  Checked for data races by the TSan CI job.
  RowExecutor pool(RowExecutorConfig{4});
  constexpr int kCallers = 4;
  constexpr std::size_t kN = 300;
  std::atomic<std::uint64_t> grand_total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 5; ++rep) {
        std::atomic<std::uint64_t> local{0};
        pool.run(
            kN, [&](std::size_t i, std::size_t) { local.fetch_add(i + 1); },
            3);
        EXPECT_EQ(local.load(), kN * (kN + 1) / 2);
        grand_total.fetch_add(local.load());
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(grand_total.load(), kCallers * 5 * (kN * (kN + 1) / 2));
}

TEST(RowExecutor, GlobalPoolIsUsable) {
  std::atomic<std::size_t> count{0};
  RowExecutor::global().run(10,
                            [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

}  // namespace
}  // namespace sysrle
