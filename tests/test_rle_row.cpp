// Unit tests for RleRow invariants and operations.

#include "rle/rle_row.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "rle/validate.hpp"

namespace sysrle {
namespace {

TEST(RleRow, DefaultIsEmpty) {
  const RleRow row;
  EXPECT_TRUE(row.empty());
  EXPECT_EQ(row.run_count(), 0u);
  EXPECT_EQ(row.foreground_pixels(), 0);
}

TEST(RleRow, ConstructsFromOrderedRuns) {
  const RleRow row{{10, 3}, {16, 2}, {23, 2}, {27, 3}};  // paper Figure 1
  EXPECT_EQ(row.run_count(), 4u);
  EXPECT_EQ(row.foreground_pixels(), 10);
  EXPECT_EQ(row.first_pixel(), 10);
  EXPECT_EQ(row.last_pixel(), 29);
}

TEST(RleRow, FromPairsMatchesInitializerList) {
  const RleRow a = RleRow::from_pairs({{3, 4}, {8, 5}});
  const RleRow b{{3, 4}, {8, 5}};
  EXPECT_EQ(a, b);
}

TEST(RleRow, RejectsOverlappingRuns) {
  EXPECT_THROW((RleRow{{10, 5}, {12, 3}}), contract_error);
}

TEST(RleRow, RejectsOutOfOrderRuns) {
  EXPECT_THROW((RleRow{{20, 2}, {10, 2}}), contract_error);
}

TEST(RleRow, RejectsNonPositiveLength) {
  EXPECT_THROW((RleRow{{10, 0}}), contract_error);
  EXPECT_THROW((RleRow{{10, -3}}), contract_error);
}

TEST(RleRow, RejectsNegativeStart) {
  EXPECT_THROW((RleRow{{-1, 3}}), contract_error);
}

TEST(RleRow, AllowsAdjacentRuns) {
  // The paper permits adjacent (touching) runs in inputs and outputs.
  const RleRow row{{10, 5}, {15, 2}};
  EXPECT_EQ(row.run_count(), 2u);
  EXPECT_FALSE(row.is_canonical());
}

TEST(RleRow, PushBackEnforcesOrder) {
  RleRow row;
  row.push_back({5, 3});
  EXPECT_THROW(row.push_back({6, 2}), contract_error);
  row.push_back({9, 2});
  EXPECT_EQ(row.run_count(), 2u);
}

TEST(RleRow, CanonicalizeMergesAdjacentRuns) {
  RleRow row{{0, 5}, {5, 3}, {8, 2}, {12, 4}};
  const std::size_t merges = row.canonicalize();
  EXPECT_EQ(merges, 2u);
  EXPECT_EQ(row, (RleRow{{0, 10}, {12, 4}}));
  EXPECT_TRUE(row.is_canonical());
}

TEST(RleRow, CanonicalizeOnCanonicalRowIsNoop) {
  RleRow row{{0, 5}, {7, 3}};
  EXPECT_EQ(row.canonicalize(), 0u);
  EXPECT_EQ(row, (RleRow{{0, 5}, {7, 3}}));
}

TEST(RleRow, CanonicalReturnsMergedCopy) {
  const RleRow row{{0, 5}, {5, 5}};
  const RleRow merged = row.canonical();
  EXPECT_EQ(merged, (RleRow{{0, 10}}));
  EXPECT_EQ(row.run_count(), 2u);  // original untouched
}

TEST(RleRow, FitsWidthChecksLastPixel) {
  const RleRow row{{10, 5}};  // last pixel 14
  EXPECT_TRUE(row.fits_width(15));
  EXPECT_FALSE(row.fits_width(14));
  EXPECT_TRUE(RleRow{}.fits_width(0));
}

// A run whose end lies past the i64 maximum must not wrap the row
// invariant: RleRow checks with the same overflow-safe predicate
// (run_ok) as validate_runs, on every entry point.
TEST(RleRow, OrderCheckDoesNotOverflowNearTheI64Maximum) {
  constexpr pos_t kNearMax = std::numeric_limits<pos_t>::max() - 1;
  const sysrle::Run huge{kNearMax, 5};  // true end is 2^63 + 2
  EXPECT_THROW((RleRow{huge, {0, 1}}), contract_error);
  EXPECT_THROW((RleRow{huge, {kNearMax + 1, 1}}), contract_error);
  EXPECT_FALSE(validate_runs(std::vector<sysrle::Run>{huge, {0, 1}}).ok());

  RleRow pushed{huge};
  EXPECT_THROW(pushed.push_back({0, 1}), contract_error);
  const sysrle::Run batch[] = {{0, 1}};
  EXPECT_THROW(pushed.append(batch, 1), contract_error);
  const sysrle::Run out_of_order[] = {huge, {0, 1}};
  EXPECT_THROW(RleRow{}.append(out_of_order, 2), contract_error);
  EXPECT_EQ(pushed.run_count(), 1u);
}

TEST(RleRow, FitsWidthDoesNotOverflowNearTheI64Maximum) {
  constexpr pos_t kNearMax = std::numeric_limits<pos_t>::max() - 1;
  const RleRow row{{kNearMax, 5}};
  EXPECT_FALSE(row.fits_width(10));
  EXPECT_FALSE(row.fits_width(std::numeric_limits<pos_t>::max()));
  EXPECT_TRUE((RleRow{{kNearMax, 1}}).fits_width(
      std::numeric_limits<pos_t>::max()));
}

TEST(RleRow, ToStringMatchesPaperFigures) {
  const RleRow row{{3, 4}, {8, 5}};
  EXPECT_EQ(row.to_string(), "(3,4) (8,5)");
  EXPECT_EQ(RleRow{}.to_string(), "");
}

TEST(RleRow, FirstLastPixelRequireNonEmpty) {
  const RleRow row;
  EXPECT_THROW(row.first_pixel(), contract_error);
  EXPECT_THROW(row.last_pixel(), contract_error);
}

}  // namespace
}  // namespace sysrle
