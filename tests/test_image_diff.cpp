// Tests for the image-level diff API across all engines.

#include "core/image_diff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "bitmap/bit_ops.hpp"
#include "bitmap/convert.hpp"
#include "common/assert.hpp"
#include "core/row_executor.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

RleImage random_image(Rng& rng, pos_t width, pos_t height, double density) {
  RowGenParams p;
  p.width = width;
  p.density = density;
  return generate_image(rng, height, p);
}

TEST(ImageDiff, AllEnginesAgreeWithBitmapGroundTruth) {
  Rng rng(801);
  const RleImage a = random_image(rng, 500, 12, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }
  const RleImage expected =
      bitmap_to_rle(xor_images(rle_to_bitmap(a), rle_to_bitmap(b)));

  for (const DiffEngine engine :
       {DiffEngine::kSystolic, DiffEngine::kBusSystolic,
        DiffEngine::kSequentialMerge, DiffEngine::kAdaptive}) {
    ImageDiffOptions opts;
    opts.engine = engine;
    opts.canonicalize_output = true;
    const ImageDiffResult r = image_diff(a, b, opts);
    EXPECT_EQ(r.diff, expected) << to_string(engine);
  }
}

TEST(ImageDiff, DimensionMismatchRejected) {
  const RleImage a(10, 2);
  const RleImage b(10, 3);
  const RleImage c(11, 2);
  EXPECT_THROW(image_diff(a, b), contract_error);
  EXPECT_THROW(image_diff(a, c), contract_error);
}

TEST(ImageDiff, IdenticalImagesGiveEmptyDiff) {
  Rng rng(802);
  const RleImage a = random_image(rng, 300, 8, 0.3);
  const ImageDiffResult r = image_diff(a, a);
  EXPECT_EQ(r.diff.stats().foreground_pixels, 0);
  // One iteration per non-empty row (everything cancels in-cell).
  EXPECT_LE(r.max_row_iterations, 1u);
}

TEST(ImageDiff, CountersAggregateAcrossRows) {
  Rng rng(803);
  const RleImage a = random_image(rng, 400, 6, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }
  ImageDiffOptions sys;
  sys.engine = DiffEngine::kSystolic;  // machine counters need the machine
  const ImageDiffResult r = image_diff(a, b, sys);
  EXPECT_GT(r.counters.iterations, 0u);
  EXPECT_GE(r.counters.iterations, r.max_row_iterations);
  EXPECT_GT(r.max_row_iterations, 0u);

  ImageDiffOptions seq;
  seq.engine = DiffEngine::kSequentialMerge;
  const ImageDiffResult rs = image_diff(a, b, seq);
  EXPECT_GT(rs.sequential_iterations, 0u);
  EXPECT_EQ(rs.counters.iterations, 0u);  // no machine involved
}

TEST(ImageDiff, EngineNamesAreDistinct) {
  EXPECT_STRNE(to_string(DiffEngine::kSystolic),
               to_string(DiffEngine::kBusSystolic));
  EXPECT_STRNE(to_string(DiffEngine::kAdaptive),
               to_string(DiffEngine::kSequentialMerge));
}

TEST(ImageDiff, EmptyImages) {
  const RleImage a(100, 0);
  const ImageDiffResult r = image_diff(a, a);
  EXPECT_EQ(r.diff.height(), 0);
  EXPECT_EQ(r.counters.iterations, 0u);
}

/// A 48-row pair from the paper's §5 generator (10000 px rows, runs of
/// 4–20 px, error runs of 2–6 px) at the given error fraction: batch_diff's
/// shape, which the row executor spreads over every participant.
std::pair<RleImage, RleImage> paper_pair(Rng& rng, double error_fraction) {
  RowGenParams rp;
  ErrorGenParams ep;
  ep.error_fraction = error_fraction;
  std::vector<RleRow> a, b;
  for (pos_t y = 0; y < 48; ++y) {
    RowPairSample s = generate_pair(rng, rp, ep);
    a.push_back(std::move(s.first));
    b.push_back(std::move(s.second));
  }
  return {RleImage(rp.width, std::move(a)), RleImage(rp.width, std::move(b))};
}

// The determinism pin: a run at 2–8 threads must be bit-identical to the
// serial run — same RleImage, same aggregated counters, same per-row
// maxima.  This is the guarantee that makes the parallel executor a drop-in
// replacement (scheduling decides who computes a row, never what).  The
// inputs: a 64-row random pair, and 48-row §5 pairs in the similar (3.5%
// error) and run-dense (30% error) regimes on the host engines (the
// cycle-level simulator on 10000-px rows takes minutes under the thread
// sanitizer; the 64-row pair runs it on every thread count).
TEST(ImageDiff, ParallelMatchesSerialBitForBit) {
  Rng rng(804);
  const RleImage a = random_image(rng, 600, 64, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }
  const std::vector<std::pair<RleImage, RleImage>> inputs = {
      {a, b}, paper_pair(rng, 0.035), paper_pair(rng, 0.30)};

  for (std::size_t in = 0; in < inputs.size(); ++in) {
    const auto& [ia, ib] = inputs[in];
    for (const DiffEngine engine :
         {DiffEngine::kSystolic, DiffEngine::kSequentialMerge,
          DiffEngine::kAdaptive}) {
      if (engine == DiffEngine::kSystolic && in > 0) continue;
      ImageDiffOptions serial;
      serial.engine = engine;
      serial.threads = 1;
      const ImageDiffResult rs = image_diff(ia, ib, serial);

      for (std::size_t threads = 2; threads <= 8; ++threads) {
        ImageDiffOptions parallel = serial;
        parallel.threads = threads;
        const ImageDiffResult rp = image_diff(ia, ib, parallel);
        SCOPED_TRACE(::testing::Message() << "input " << in << ", "
                                          << to_string(engine) << ", "
                                          << threads << " threads");
        EXPECT_EQ(rp.diff, rs.diff);
        EXPECT_EQ(rp.counters.to_string(), rs.counters.to_string());
        EXPECT_EQ(rp.max_row_iterations, rs.max_row_iterations);
        EXPECT_EQ(rp.sequential_iterations, rs.sequential_iterations);
        EXPECT_EQ(rp.adaptive_systolic_rows, rs.adaptive_systolic_rows);
        EXPECT_EQ(rp.adaptive_sequential_rows, rs.adaptive_sequential_rows);
        EXPECT_EQ(rp.adaptive_modelled_iterations,
                  rs.adaptive_modelled_iterations);
      }
    }
  }
}

TEST(ImageDiff, PaperHeightImagesFillThePoolAndTinyOnesStaySerial) {
  // A 48-row §5 pair gets every auto participant of the shared pool; a
  // pair below the serial threshold plans one slot, whatever was asked.
  Rng rng(809);
  RowExecutor& pool = RowExecutor::global();
  ImageDiffOptions opts;
  opts.engine = DiffEngine::kAdaptive;
  for (const double error : {0.035, 0.30}) {
    const auto [a, b] = paper_pair(rng, error);
    for (const std::size_t threads : {0, 4}) {
      opts.threads = threads;
      EXPECT_EQ(pool.plan_slots(48, row_parallelism(a, b, opts)),
                threads == 0 ? pool.thread_count() : threads);
    }
  }

  const RleImage tiny = random_image(rng, 100, 48, 0.3);
  for (const DiffEngine engine :
       {DiffEngine::kAdaptive, DiffEngine::kSystolic}) {
    opts.engine = engine;
    for (const std::size_t threads : {0, 4}) {
      opts.threads = threads;
      EXPECT_EQ(pool.plan_slots(48, row_parallelism(tiny, tiny, opts)), 1u)
          << to_string(engine) << ", " << threads << " threads";
      EXPECT_EQ(image_diff(tiny, tiny, opts).threads_used, 1u);
    }
  }
}

TEST(ImageDiff, ThreadsUsedIsSurfaced) {
  Rng rng(805);
  const RleImage a = random_image(rng, 200, 32, 0.3);
  ImageDiffOptions opts;
  opts.threads = 1;
  const ImageDiffResult serial = image_diff(a, a, opts);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(serial.parallel_rows, 0u);

  opts.threads = 4;
  const ImageDiffResult parallel = image_diff(a, a, opts);
  EXPECT_GE(parallel.threads_used, 1u);
  EXPECT_LE(parallel.threads_used, 4u);
}

TEST(ImageDiff, ConcurrentCallsShareTheGlobalPool) {
  // Several threads run threaded image_diffs at once (the service's
  // pattern); every caller must still get the exact serial answer.  The
  // TSan CI job runs this for data races.
  Rng rng(807);
  const RleImage a = random_image(rng, 5000, 48, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }
  ImageDiffOptions opts;
  opts.engine = DiffEngine::kAdaptive;
  opts.threads = 1;
  const ImageDiffResult expected = image_diff(a, b, opts);

  opts.threads = 3;
  ASSERT_EQ(row_parallelism(a, b, opts), 3u);  // the calls share the pool
  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        const ImageDiffResult r = image_diff(a, b, opts);
        if (!(r.diff == expected.diff) ||
            r.counters.to_string() != expected.counters.to_string())
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ImageDiff, AdaptiveRoutesSimilarRowsToSystolic) {
  // Identical images: every row pair has k1 == k2, the most similar shape
  // possible — θ must route every row to the array, whose modelled
  // iterations |k1 - k2| are all zero.  The host still runs the word
  // engine on every row, so output and sequential work are exactly
  // kSequentialMerge's and no machine activity is counted.
  Rng rng(806);
  const RleImage a = random_image(rng, 300, 16, 0.3);
  for (const bool canonical : {true, false}) {
    ImageDiffOptions opts;
    opts.engine = DiffEngine::kAdaptive;
    opts.canonicalize_output = canonical;
    const ImageDiffResult r = image_diff(a, a, opts);
    EXPECT_EQ(r.adaptive_sequential_rows, 0u);
    EXPECT_EQ(r.adaptive_systolic_rows,
              static_cast<std::uint64_t>(a.height()));
    EXPECT_EQ(r.adaptive_modelled_iterations, 0u);
    EXPECT_EQ(r.counters.iterations, 0u);  // no machine ran
    EXPECT_EQ(r.max_row_iterations, 0u);

    opts.engine = DiffEngine::kSequentialMerge;
    const ImageDiffResult seq = image_diff(a, a, opts);
    EXPECT_EQ(r.diff, seq.diff) << "canonical=" << canonical;
    EXPECT_EQ(r.sequential_iterations, seq.sequential_iterations)
        << "canonical=" << canonical;
    EXPECT_GT(r.sequential_iterations, 0u);
  }
}

TEST(ImageDiff, AdaptiveModelledIterationsSumArrayRowsOnly) {
  // Hand-built rows, θ = 0.15:
  //   row 0: k1 = 7, k2 = 6 — |1| <= 1.95, array, models 1 iteration
  //   row 1: k1 = 0, k2 = 6 — |6| >  0.9,  merge, models nothing
  //   row 2: k1 = 8, k2 = 7 — |1| <= 2.25, array, models 1 iteration
  //   row 3: k1 = 2, k2 = 4 — |2| >  0.9,  merge, models nothing
  // so the image models 2 iterations, and the route mix is 2 / 2.
  const auto spaced = [](int runs, pos_t start) {
    RleRow row;
    for (int i = 0; i < runs; ++i)
      row.push_back(sysrle::Run{start + 10 * i, 3});
    return row;
  };
  RleImage a(120, 4), b(120, 4);
  a.set_row(0, spaced(7, 0));
  b.set_row(0, spaced(6, 1));
  b.set_row(1, spaced(6, 2));
  a.set_row(2, spaced(8, 0));
  b.set_row(2, spaced(7, 5));
  a.set_row(3, spaced(2, 40));
  b.set_row(3, spaced(4, 0));

  for (const bool canonical : {true, false}) {
    ImageDiffOptions opts;
    opts.engine = DiffEngine::kAdaptive;
    opts.canonicalize_output = canonical;
    const ImageDiffResult r = image_diff(a, b, opts);
    EXPECT_EQ(r.adaptive_systolic_rows, 2u);
    EXPECT_EQ(r.adaptive_sequential_rows, 2u);
    EXPECT_EQ(r.adaptive_modelled_iterations, 2u);
    EXPECT_EQ(r.counters.iterations, 0u);
    EXPECT_EQ(r.max_row_iterations, 0u);

    opts.engine = DiffEngine::kSequentialMerge;
    const ImageDiffResult seq = image_diff(a, b, opts);
    EXPECT_EQ(r.diff, seq.diff) << "canonical=" << canonical;
    EXPECT_EQ(r.sequential_iterations, seq.sequential_iterations);
    EXPECT_EQ(seq.adaptive_modelled_iterations, 0u);  // fixed engine
  }
}

TEST(ImageDiff, AdaptiveRoutesDissimilarRowsToSequential) {
  // Empty rows against heavily fragmented rows: |k1 - k2| == k1 + k2, the
  // most dissimilar shape — every row must take the sequential merge.
  const pos_t width = 400;
  const pos_t height = 8;
  const RleImage empty(width, height);
  RleImage busy(width, height);
  for (pos_t y = 0; y < height; ++y) {
    RleRow row;
    for (pos_t x = 0; x + 1 < width; x += 8) row.push_back(sysrle::Run{x, 2});
    busy.set_row(y, std::move(row));
  }
  ImageDiffOptions opts;
  opts.engine = DiffEngine::kAdaptive;
  const ImageDiffResult r = image_diff(empty, busy, opts);
  EXPECT_EQ(r.adaptive_systolic_rows, 0u);
  EXPECT_EQ(r.adaptive_sequential_rows, static_cast<std::uint64_t>(height));
  EXPECT_GT(r.sequential_iterations, 0u);
  EXPECT_EQ(r.counters.iterations, 0u);  // no machine ran
}

}  // namespace
}  // namespace sysrle
