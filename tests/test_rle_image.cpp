// Tests for the RLE image container.

#include "rle/rle_image.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/assert.hpp"

namespace sysrle {
namespace {

TEST(RleImage, ConstructsEmpty) {
  const RleImage img(100, 4);
  EXPECT_EQ(img.width(), 100);
  EXPECT_EQ(img.height(), 4);
  for (pos_t y = 0; y < 4; ++y) EXPECT_TRUE(img.row(y).empty());
}

TEST(RleImage, SetRowAndReadBack) {
  RleImage img(50, 2);
  img.set_row(1, RleRow{{10, 5}});
  EXPECT_TRUE(img.row(0).empty());
  EXPECT_EQ(img.row(1), (RleRow{{10, 5}}));
}

TEST(RleImage, SetRowRejectsTooWideRow) {
  RleImage img(10, 1);
  EXPECT_THROW(img.set_row(0, RleRow{{8, 4}}), contract_error);
}

TEST(RleImage, RowIndexBoundsChecked) {
  RleImage img(10, 2);
  EXPECT_THROW(img.row(2), contract_error);
  EXPECT_THROW(img.row(-1), contract_error);
  EXPECT_THROW(img.set_row(5, RleRow{}), contract_error);
}

TEST(RleImage, ConstructFromRowsValidatesWidth) {
  std::vector<RleRow> rows{RleRow{{0, 5}}, RleRow{{6, 4}}};
  const RleImage img(10, rows);
  EXPECT_EQ(img.height(), 2);
  std::vector<RleRow> bad{RleRow{{6, 6}}};
  EXPECT_THROW(RleImage(10, bad), contract_error);
}

// A run far past the width whose i64 end would wrap negative is still
// outside the width (RleRow::fits_width computes the end without overflow).
TEST(RleImage, RejectsARunWhoseEndOverflows) {
  const RleRow huge{{std::numeric_limits<pos_t>::max() - 1, 5}};
  EXPECT_THROW(RleImage(10, {huge}), contract_error);
  RleImage img(10, 1);
  EXPECT_THROW(img.set_row(0, huge), contract_error);
}

TEST(RleImage, StatsAggregatesRuns) {
  RleImage img(100, 3);
  img.set_row(0, RleRow{{0, 10}, {20, 10}});
  img.set_row(1, RleRow{{5, 30}});
  // row 2 empty
  const RleImageStats s = img.stats();
  EXPECT_EQ(s.total_runs, 3u);
  EXPECT_EQ(s.max_runs_per_row, 2u);
  EXPECT_EQ(s.foreground_pixels, 50);
  EXPECT_DOUBLE_EQ(s.density, 50.0 / 300.0);
}

TEST(RleImage, StatsOnZeroAreaImage) {
  const RleImage img(0, 0);
  const RleImageStats s = img.stats();
  EXPECT_EQ(s.total_runs, 0u);
  EXPECT_DOUBLE_EQ(s.density, 0.0);
}

TEST(RleImage, EqualityAndToString) {
  RleImage a(20, 2);
  a.set_row(0, RleRow{{1, 2}});
  RleImage b = a;
  EXPECT_EQ(a, b);
  b.set_row(1, RleRow{{3, 3}});
  EXPECT_NE(a, b);
  EXPECT_EQ(a.to_string(), "(1,2)\n");
}

}  // namespace
}  // namespace sysrle
