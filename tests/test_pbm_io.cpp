// Tests for PBM (P1/P4) reading and writing.

#include "bitmap/pbm_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

BitmapImage sample_image() {
  BitmapImage img(10, 4);
  img.fill_rect(0, 0, 3, 2, true);
  img.fill_rect(7, 2, 3, 2, true);
  img.set(5, 1, true);
  return img;
}

TEST(PbmIo, AsciiRoundTrip) {
  const BitmapImage img = sample_image();
  std::stringstream ss;
  write_pbm(ss, img, PbmFormat::kAscii);
  EXPECT_EQ(read_pbm(ss), img);
}

TEST(PbmIo, RawRoundTrip) {
  const BitmapImage img = sample_image();
  std::stringstream ss;
  write_pbm(ss, img, PbmFormat::kRaw);
  EXPECT_EQ(read_pbm(ss), img);
}

TEST(PbmIo, RawRoundTripNonByteAlignedWidth) {
  BitmapImage img(13, 3);  // 13 bits -> 2 padded bytes per row
  img.fill_rect(6, 0, 7, 3, true);
  std::stringstream ss;
  write_pbm(ss, img, PbmFormat::kRaw);
  EXPECT_EQ(read_pbm(ss), img);
}

TEST(PbmIo, ParsesCommentsInHeader) {
  std::stringstream ss("P1\n# a comment\n3 2\n# another\n1 0 1\n0 1 0\n");
  const BitmapImage img = read_pbm(ss);
  EXPECT_EQ(img.width(), 3);
  EXPECT_EQ(img.height(), 2);
  EXPECT_EQ(img.to_string(), "101\n010");
}

TEST(PbmIo, P4BitPackingIsMsbFirst) {
  // One row, 8 pixels "10000001" -> byte 0x81.
  std::stringstream ss;
  ss << "P4\n8 1\n";
  ss.put(static_cast<char>(0x81));
  const BitmapImage img = read_pbm(ss);
  EXPECT_EQ(img.to_string(), "10000001");
}

TEST(PbmIo, RejectsBadMagic) {
  std::stringstream ss("P5\n2 2\n....");
  EXPECT_THROW(read_pbm(ss), contract_error);
}

TEST(PbmIo, RejectsTruncatedRaw) {
  std::stringstream ss;
  ss << "P4\n16 2\n";
  ss.put('\xff');  // needs 4 bytes, provide 1
  EXPECT_THROW(read_pbm(ss), contract_error);
}

// The P4 reader fills whole words per row; widths straddling byte and
// word boundaries must decode exactly what the per-pixel writer encoded.
TEST(PbmIo, RawRoundTripAtByteAndWordBoundaryWidths) {
  Rng rng(41);
  for (const pos_t width : {1, 7, 8, 9, 13, 63, 64, 65, 100, 127, 128, 130,
                            200}) {
    BitmapImage img(width, 5);
    for (pos_t y = 0; y < img.height(); ++y)
      for (pos_t x = 0; x < width; ++x)
        if (rng.bernoulli(0.4)) img.set(x, y, true);
    img.set(width - 1, 0, true);  // a run touching the right edge
    std::stringstream ss;
    write_pbm(ss, img, PbmFormat::kRaw);
    EXPECT_EQ(read_pbm(ss), img) << "width " << width;
  }
}

TEST(PbmIo, P4IgnoresNonZeroPaddingBits) {
  for (const pos_t width : {13, 70}) {  // 3 and 2 padding bits per row
    const pos_t bytes_per_row = (width + 7) / 8;
    std::stringstream ss;
    ss << "P4\n" << width << " 3\n";
    for (pos_t i = 0; i < bytes_per_row * 3; ++i) ss.put('\xff');
    const BitmapImage img = read_pbm(ss);
    BitmapImage expected(width, 3);
    expected.fill_rect(0, 0, width, 3, true);
    // Equality compares whole words: a stray padding bit would show.
    EXPECT_EQ(img, expected) << "width " << width;
    EXPECT_EQ(img.popcount(), width * 3);
  }
}

TEST(PbmIo, RejectsTruncationMidRowWithTypedError) {
  std::stringstream ss;
  ss << "P4\n100 2\n";  // 13 bytes per row
  for (int i = 0; i < 13 + 5; ++i) ss.put('\x55');
  try {
    read_pbm(ss);
    FAIL() << "truncated P4 data was accepted";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("PBM(P4): truncated pixel data"),
              std::string::npos)
        << e.what();
  }
}

TEST(PbmIo, RejectsBadAsciiPixel) {
  std::stringstream ss("P1\n2 1\n1 2\n");
  EXPECT_THROW(read_pbm(ss), contract_error);
}

TEST(PbmIo, FileRoundTrip) {
  const BitmapImage img = sample_image();
  const std::string path = ::testing::TempDir() + "/sysrle_pbm_test.pbm";
  write_pbm_file(path, img);
  EXPECT_EQ(read_pbm_file(path), img);
  EXPECT_THROW(read_pbm_file(path + ".does-not-exist"), contract_error);
}

TEST(PbmIo, EmptyImageRoundTrip) {
  const BitmapImage img(0, 0);
  std::stringstream ss;
  write_pbm(ss, img, PbmFormat::kRaw);
  const BitmapImage back = read_pbm(ss);
  EXPECT_EQ(back.width(), 0);
  EXPECT_EQ(back.height(), 0);
}

}  // namespace
}  // namespace sysrle
