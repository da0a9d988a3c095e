// Differential suite for the single row-engine dispatch (core diff_row):
// every DiffEngine, driven through both image_diff and StreamDiffer, in
// canonical and raw output mode, must agree with the scalar sequential_xor
// oracle on random and adversarial rows — at every SIMD dispatch level of
// the word-parallel engine.  image_diff and StreamDiffer share one dispatch,
// so their outputs and counters must also agree with each other exactly.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baseline/sequential_diff.hpp"
#include "baseline/simd_dispatch.hpp"
#include "core/image_diff.hpp"
#include "core/stream_diff.hpp"
#include "rle/ops.hpp"
#include "rle/validate.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using sysrle::testing::random_row;

constexpr pos_t kWidth = 320;  // five 64-bit words

constexpr DiffEngine kEngines[] = {
    DiffEngine::kSystolic,
    DiffEngine::kBusSystolic,
    DiffEngine::kSequentialMerge,
    DiffEngine::kAdaptive,
};

/// Row pairs at kWidth: adversarial shapes first, then random rows from
/// sparse to dense (which also drive kAdaptive down both routes).
std::vector<std::pair<RleRow, RleRow>> row_pairs() {
  const RleRow full{{0, kWidth}};
  std::vector<std::pair<RleRow, RleRow>> out = {
      {RleRow{}, RleRow{}},                      // empty rows
      {full, RleRow{}},                          // full width vs empty
      {full, full},                              // full width, empty diff
      {full, RleRow{{0, 160}, {161, 159}}},      // one interior flip
      {RleRow{{kWidth - 1, 1}}, RleRow{}},       // last pixel only
      {RleRow{{kWidth - 64, 64}}, RleRow{{kWidth - 3, 3}}},  // edge runs
      {RleRow{{0, 1}, {kWidth - 1, 1}}, full},   // both borders
      {RleRow{{63, 1}}, RleRow{{64, 1}}},        // word-boundary straddle
      {RleRow{{0, 64}, {128, 64}}, RleRow{{64, 64}, {192, 128}}},
      {RleRow{{0, 4}, {4, 4}}, RleRow{{2, 4}}},  // adjacent input runs
  };
  Rng rng(1212);
  for (const double density : {0.02, 0.1, 0.3, 0.5, 0.7, 0.95}) {
    for (int i = 0; i < 6; ++i) {
      const RleRow a = random_row(rng, kWidth, density);
      // Similar pairs (a few flips) and independent pairs.
      const RleRow b = i % 2 == 0
                           ? random_row(rng, kWidth, density)
                           : xor_rows(a, random_row(rng, kWidth, 0.01));
      out.emplace_back(a, b);
    }
  }
  return out;
}

RleImage image_of(const std::vector<std::pair<RleRow, RleRow>>& pairs,
                  bool first) {
  RleImage img(kWidth, static_cast<pos_t>(pairs.size()));
  for (std::size_t y = 0; y < pairs.size(); ++y)
    img.set_row(static_cast<pos_t>(y),
                first ? pairs[y].first : pairs[y].second);
  return img;
}

TEST(RowDispatch, EveryEngineAndCallerMatchesOracleInBothOutputModes) {
  const std::vector<std::pair<RleRow, RleRow>> pairs = row_pairs();
  const RleImage a = image_of(pairs, true);
  const RleImage b = image_of(pairs, false);

  for (const SimdLevel level : supported_simd_levels()) {
    const SimdLevel saved = active_simd_level();
    set_simd_level(level);
    for (const DiffEngine engine : kEngines) {
      for (const bool canonical : {true, false}) {
        ImageDiffOptions options;
        options.engine = engine;
        options.canonicalize_output = canonical;
        options.threads = 2;
        const ImageDiffResult image = image_diff(a, b, options);

        std::vector<RleRow> streamed;
        StreamDiffer differ(options, [&](pos_t, const RleRow& d) {
          streamed.push_back(d);
        });
        for (const auto& [ra, rb] : pairs) differ.push_row(ra, rb);
        const StreamSummary& summary = differ.finish();
        ASSERT_EQ(streamed.size(), pairs.size());
        EXPECT_EQ(summary.fallback_rows, 0u);

        for (std::size_t y = 0; y < pairs.size(); ++y) {
          const auto& [ra, rb] = pairs[y];
          const RleRow raw_oracle = sequential_xor(ra, rb).output;
          const RleRow oracle = raw_oracle.canonical();
          const RleRow& got = image.diff.row(static_cast<pos_t>(y));
          const auto where = [&] {
            return ::testing::Message()
                   << "level=" << to_string(level)
                   << " engine=" << to_string(engine)
                   << " canonical=" << canonical << " row=" << y
                   << " a=" << ra << " b=" << rb;
          };
          EXPECT_TRUE(validate_runs(got.runs()).ok()) << where();
          EXPECT_EQ(got.canonical(), oracle) << where();
          if (canonical) {
            EXPECT_EQ(got, oracle) << where();
          } else if (engine == DiffEngine::kSequentialMerge) {
            EXPECT_EQ(got, raw_oracle) << where();
          }
          // One dispatch: the stream produces exactly the image's row.
          EXPECT_EQ(streamed[y], got) << where();
        }
        // One tally: every summed count agrees, adaptive mix included.
        EXPECT_TRUE(static_cast<const RowTally&>(summary) == image)
            << "level=" << to_string(level)
            << " engine=" << to_string(engine) << " canonical=" << canonical;
      }
    }
    set_simd_level(saved);
  }
}

TEST(RowDispatch, AdaptiveRoutesAreReportedPerRow) {
  // kAdaptive executes kSequentialMerge on every row; θ's route and the
  // modelled array iterations ride along as a report.
  const std::vector<std::pair<RleRow, RleRow>> pairs = row_pairs();
  SystolicDiffMachine machine;
  for (const bool canonical : {true, false}) {
    ImageDiffOptions options;
    options.engine = DiffEngine::kAdaptive;
    options.canonicalize_output = canonical;
    ImageDiffOptions sequential = options;
    sequential.engine = DiffEngine::kSequentialMerge;
    std::uint64_t systolic_rows = 0, sequential_rows = 0, modelled = 0;
    for (const auto& [ra, rb] : pairs) {
      const RowDiff row = diff_row(ra, rb, options, machine);
      const RowDiff host = diff_row(ra, rb, sequential, machine);
      const auto where = [&] {
        return ::testing::Message() << "canonical=" << canonical
                                    << " a=" << ra << " b=" << rb;
      };
      EXPECT_EQ(row.output, host.output) << where();
      EXPECT_EQ(row.sequential_iterations, host.sequential_iterations)
          << where();
      EXPECT_EQ(row.counters.iterations, 0u) << where();
      ASSERT_TRUE(row.adaptive_route.has_value()) << where();
      const AdaptiveRoute expected =
          choose_adaptive_route(ra.run_count(), rb.run_count(),
                                kDefaultSimilarityThreshold);
      EXPECT_EQ(*row.adaptive_route, expected) << where();
      if (expected == AdaptiveRoute::kSystolic) {
        ++systolic_rows;
        EXPECT_EQ(row.adaptive_modelled_iterations,
                  estimate_costs(ra, rb).run_count_difference())
            << where();
        modelled += row.adaptive_modelled_iterations;
      } else {
        ++sequential_rows;
        EXPECT_EQ(row.adaptive_modelled_iterations, 0u) << where();
      }
    }
    EXPECT_GT(systolic_rows, 0u);
    EXPECT_GT(sequential_rows, 0u);
    EXPECT_GT(modelled, 0u);

    const ImageDiffResult image =
        image_diff(image_of(pairs, true), image_of(pairs, false), options);
    EXPECT_EQ(image.adaptive_systolic_rows, systolic_rows);
    EXPECT_EQ(image.adaptive_sequential_rows, sequential_rows);
    EXPECT_EQ(image.adaptive_modelled_iterations, modelled);
    EXPECT_EQ(image.counters.iterations, 0u);
    EXPECT_EQ(image.max_row_iterations, 0u);
  }

  ImageDiffOptions fixed;
  fixed.engine = DiffEngine::kSequentialMerge;
  const RowDiff row = diff_row(pairs[1].first, pairs[1].second, fixed,
                               machine);
  EXPECT_FALSE(row.adaptive_route.has_value());
  EXPECT_EQ(row.adaptive_modelled_iterations, 0u);
}

TEST(RowDispatch, LibraryDefaultIsTheWordParallelSequentialEngine) {
  EXPECT_EQ(ImageDiffOptions{}.engine, DiffEngine::kSequentialMerge);
  EXPECT_TRUE(ImageDiffOptions{}.canonicalize_output);
}

}  // namespace
}  // namespace sysrle
