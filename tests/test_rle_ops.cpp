// Tests for the sequential parity-sweep set operations on RLE rows,
// cross-checked against uncompressed string arithmetic.

#include "rle/ops.hpp"

#include <gtest/gtest.h>

#include "rle/encode.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using RunT = ::sysrle::Run;  // avoid collision with testing::Test::Run

using sysrle::testing::random_row;

RleRow row_of(const std::string& bits) { return encode_bitstring(bits); }

TEST(RleOps, XorPaperFigure1) {
  // Figure 1 of the paper, transcribed exactly.
  const RleRow img1{{10, 3}, {16, 2}, {23, 2}, {27, 3}};
  const RleRow img2{{3, 4}, {8, 5}, {15, 5}, {23, 2}, {27, 4}};
  const RleRow expected{{3, 4}, {8, 2}, {15, 1}, {18, 2}, {30, 1}};
  EXPECT_EQ(xor_rows(img1, img2), expected);
  EXPECT_EQ(xor_rows(img2, img1), expected);  // symmetric
}

TEST(RleOps, XorBasics) {
  EXPECT_EQ(xor_rows(row_of("1100"), row_of("1010")), row_of("0110"));
  EXPECT_TRUE(xor_rows(row_of("1111"), row_of("1111")).empty());
  EXPECT_EQ(xor_rows(row_of("1111"), RleRow{}), row_of("1111"));
  EXPECT_TRUE(xor_rows(RleRow{}, RleRow{}).empty());
}

TEST(RleOps, AndOrSubtractBasics) {
  EXPECT_EQ(and_rows(row_of("1100"), row_of("1010")), row_of("1000"));
  EXPECT_EQ(or_rows(row_of("1100"), row_of("1010")), row_of("1110"));
  EXPECT_EQ(subtract_rows(row_of("1100"), row_of("1010")), row_of("0100"));
}

TEST(RleOps, ComplementWithinWidth) {
  EXPECT_EQ(complement_row(row_of("0110"), 4), row_of("1001"));
  EXPECT_EQ(complement_row(RleRow{}, 3), row_of("111"));
  EXPECT_TRUE(complement_row(row_of("111"), 3).empty());
}

TEST(RleOps, ResultsAreCanonical) {
  // Adjacent fragments in the XOR must merge into one run.
  const RleRow a{{0, 4}};           // [0,3]
  const RleRow b{{4, 4}};           // [4,7]
  EXPECT_EQ(xor_rows(a, b), (RleRow{{0, 8}}));
  EXPECT_TRUE(xor_rows(a, b).is_canonical());
}

TEST(RleOps, AdjacentInputRunsAreOneInterval) {
  // Adjacent runs are legal (non-canonical) input; the sweep must treat
  // (0,4)(4,4) exactly like (0,8) instead of opening an empty segment.
  const RleRow split{{0, 4}, {4, 4}};
  const RleRow whole{{0, 8}};
  const RleRow b{{2, 4}};
  EXPECT_EQ(xor_rows(split, b), xor_rows(whole, b));
  EXPECT_EQ(xor_rows(b, split), xor_rows(b, whole));
  EXPECT_EQ(and_rows(split, b), and_rows(whole, b));
  EXPECT_EQ(or_rows(split, b), whole);
  EXPECT_EQ(subtract_rows(split, b), subtract_rows(whole, b));
  EXPECT_TRUE(xor_rows(split, whole).empty());
  EXPECT_EQ(xor_rows(RleRow{{0, 2}, {2, 2}, {4, 2}}, RleRow{{6, 1}}),
            (RleRow{{0, 7}}));
}

TEST(RleOps, IntersectionAndHamming) {
  const RleRow a = row_of("11011000");
  const RleRow b = row_of("01010110");
  EXPECT_EQ(intersection_pixels(a, b), 2);
  EXPECT_EQ(hamming_distance(a, b), 4);
  EXPECT_EQ(hamming_distance(a, a), 0);
}

TEST(RleOps, RandomAgainstStringArithmetic) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const pos_t width = rng.uniform(1, 200);
    const double da = rng.uniform01();
    const double db = rng.uniform01();
    const RleRow a = random_row(rng, width, da);
    const RleRow b = random_row(rng, width, db);
    const std::string sa = decode_bitstring(a, width);
    const std::string sb = decode_bitstring(b, width);
    auto expect_bits = [&](const RleRow& got, auto op, const char* name) {
      std::string want(sa.size(), '0');
      for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = op(sa[i] == '1', sb[i] == '1') ? '1' : '0';
      EXPECT_EQ(decode_bitstring(got, width), want) << name << " trial "
                                                    << trial;
    };
    expect_bits(xor_rows(a, b), [](bool x, bool y) { return x != y; }, "xor");
    expect_bits(and_rows(a, b), [](bool x, bool y) { return x && y; }, "and");
    expect_bits(or_rows(a, b), [](bool x, bool y) { return x || y; }, "or");
    expect_bits(subtract_rows(a, b), [](bool x, bool y) { return x && !y; },
                "subtract");
  }
}

TEST(RleOps, XorRunMultisetFoldsOverlaps) {
  // Two copies of a run cancel; three copies survive.
  EXPECT_TRUE(xor_run_multiset({{5, 3}, {5, 3}}).empty());
  EXPECT_EQ(xor_run_multiset({{5, 3}, {5, 3}, {5, 3}}), (RleRow{{5, 3}}));
}

TEST(RleOps, XorRunMultisetMatchesPairwiseXor) {
  Rng rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const pos_t width = 120;
    std::vector<RunT> all;
    RleRow acc;
    const int groups = static_cast<int>(rng.uniform(0, 5));
    for (int g = 0; g < groups; ++g) {
      const RleRow row = random_row(rng, width, 0.3);
      for (const RunT& r : row) all.push_back(r);
      acc = xor_rows(acc, row);
    }
    EXPECT_EQ(xor_run_multiset(all), acc.canonical());
  }
}

TEST(RleOps, XorRunMultisetOfSingleRowIsIdentity) {
  // Corollary 3.1: the XOR of a row's runs is the row itself.
  const RleRow row{{2, 3}, {7, 4}, {20, 1}};
  std::vector<RunT> runs(row.runs());
  EXPECT_EQ(xor_run_multiset(runs), row);
}

}  // namespace
}  // namespace sysrle
