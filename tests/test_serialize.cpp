// Tests for the RLE image serialization formats.

#include "rle/serialize.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "rle/validate.hpp"
#include "workload/generator.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using testing::to_hex;

RleImage sample_image() {
  Rng rng(51);
  RowGenParams p;
  p.width = 300;
  return generate_image(rng, 12, p);
}

TEST(Serialize, BinaryRoundTrip) {
  const RleImage img = sample_image();
  std::stringstream ss;
  write_rle(ss, img, RleFormat::kBinary);
  EXPECT_EQ(read_rle(ss), img);
}

TEST(Serialize, TextRoundTrip) {
  const RleImage img = sample_image();
  std::stringstream ss;
  write_rle(ss, img, RleFormat::kText);
  EXPECT_EQ(read_rle(ss), img);
}

TEST(Serialize, EmptyImageRoundTrips) {
  const RleImage img(0, 0);
  for (const RleFormat f : {RleFormat::kText, RleFormat::kBinary}) {
    std::stringstream ss;
    write_rle(ss, img, f);
    const RleImage back = read_rle(ss);
    EXPECT_EQ(back.width(), 0);
    EXPECT_EQ(back.height(), 0);
  }
}

TEST(Serialize, FormatAutoDetected) {
  const RleImage img = sample_image();
  std::stringstream text, binary;
  write_rle(text, img, RleFormat::kText);
  write_rle(binary, img, RleFormat::kBinary);
  EXPECT_NE(text.str(), binary.str());
  EXPECT_EQ(read_rle(text), read_rle(binary));
}

TEST(Serialize, MagicBytesIdentifyFormat) {
  const RleImage img = sample_image();
  std::stringstream text, binary;
  write_rle(text, img, RleFormat::kText);
  write_rle(binary, img, RleFormat::kBinary);
  EXPECT_EQ(text.str().substr(0, 4), "SRLT");
  EXPECT_EQ(binary.str().substr(0, 4), "SRLB");
  // Binary size is exactly predictable: magic + 3 header fields + per-row
  // count + 2 fields per run, all 8 bytes.
  std::size_t expected = 4 + 3 * 8;
  for (pos_t y = 0; y < img.height(); ++y)
    expected += 8 + 16 * img.row(y).run_count();
  EXPECT_EQ(binary.str().size(), expected);
}

TEST(Serialize, RejectsUnknownMagic) {
  std::stringstream ss("XXXX whatever");
  EXPECT_THROW(read_rle(ss), contract_error);
}

TEST(Serialize, RejectsTruncatedBinary) {
  const RleImage img = sample_image();
  std::stringstream ss;
  write_rle(ss, img, RleFormat::kBinary);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_rle(cut), contract_error);
}

TEST(Serialize, RejectsCorruptRuns) {
  // Text image with an overlapping run pair.
  std::stringstream ss("SRLT\n10 1\n2 0 5 3 4\n");
  EXPECT_THROW(read_rle(ss), contract_error);
  // Run exceeding the declared width.
  std::stringstream ss2("SRLT\n10 1\n1 8 4\n");
  EXPECT_THROW(read_rle(ss2), contract_error);
}

TEST(Serialize, FuzzCorruptionNeverCrashes) {
  // Flip one byte at every position of a serialized image: the reader must
  // either succeed (header-irrelevant bit) or throw contract_error — never
  // crash, hang, or return quietly-wrong dimensions.
  const RleImage img = sample_image();
  for (const RleFormat f : {RleFormat::kBinary, RleFormat::kText}) {
    std::stringstream ss;
    write_rle(ss, img, f);
    const std::string clean = ss.str();
    // Stride through the stream to keep the test fast but cover header,
    // row counts and run payloads.
    for (std::size_t pos = 0; pos < clean.size(); pos += 7) {
      for (const char flip : {'\x01', '\x80'}) {
        std::string corrupt = clean;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ flip);
        std::stringstream in(corrupt);
        try {
          const RleImage back = read_rle(in);
          // Accepted: must still be a structurally valid image.
          EXPECT_GE(back.width(), 0);
          EXPECT_GE(back.height(), 0);
        } catch (const contract_error&) {
          // Rejected cleanly: fine.
        }
      }
    }
  }
}

TEST(Serialize, FuzzTruncationAlwaysThrows) {
  const RleImage img = sample_image();
  std::stringstream ss;
  write_rle(ss, img, RleFormat::kBinary);
  const std::string clean = ss.str();
  for (std::size_t keep = 4; keep + 8 < clean.size(); keep += 13) {
    std::stringstream in(clean.substr(0, keep));
    EXPECT_THROW(read_rle(in), contract_error) << "kept " << keep;
  }
}

/// Appends one little-endian 8-byte field, mirroring the SRLB layout.
void append_i64(std::string& s, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i)
    s.push_back(static_cast<char>((u >> (8 * i)) & 0xff));
}

TEST(Serialize, EveryByteCorruptionOfSmallBinaryIsContained) {
  // Exhaustive hostility on a small SRLB file: flip every bit of every byte
  // and truncate at every prefix length.  The reader must either accept a
  // structurally valid image or throw contract_error — never crash, hang,
  // or allocate absurdly.
  RleImage img(32, 3);
  img.set_row(0, RleRow{{1, 3}, {10, 2}});
  img.set_row(1, RleRow{});
  img.set_row(2, RleRow{{0, 32}});
  std::stringstream ss;
  write_rle(ss, img, RleFormat::kBinary);
  const std::string clean = ss.str();

  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = clean;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      std::stringstream in(corrupt);
      try {
        const RleImage back = read_rle(in);
        EXPECT_GE(back.width(), 0);
        EXPECT_GE(back.height(), 0);
        for (pos_t y = 0; y < back.height(); ++y)
          EXPECT_TRUE(back.row(y).fits_width(back.width()));
      } catch (const contract_error&) {
        // Rejected cleanly: fine.
      }
    }
  }
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    std::stringstream in(clean.substr(0, keep));
    EXPECT_THROW(read_rle(in), contract_error) << "kept " << keep;
  }
}

TEST(Serialize, RejectsHostileBinaryHeadersWithoutHugeAllocation) {
  // Run count exceeding what the width can hold.
  std::string oversized("SRLB");
  append_i64(oversized, 1);   // version
  append_i64(oversized, 10);  // width
  append_i64(oversized, 1);   // height
  append_i64(oversized, 1'000'000);  // count for row 0
  std::stringstream in(oversized);
  EXPECT_THROW(read_rle(in), contract_error);

  // Absurd dimensions must be rejected before any row allocation.
  std::string huge("SRLB");
  append_i64(huge, 1);
  append_i64(huge, std::int64_t{1} << 40);
  append_i64(huge, std::int64_t{1} << 40);
  std::stringstream in2(huge);
  EXPECT_THROW(read_rle(in2), contract_error);

  // Negative width.
  std::string negw("SRLB");
  append_i64(negw, 1);
  append_i64(negw, -5);
  append_i64(negw, 3);
  std::stringstream in3(negw);
  EXPECT_THROW(read_rle(in3), contract_error);

  // Negative run count.
  std::string negc("SRLB");
  append_i64(negc, 1);
  append_i64(negc, 10);
  append_i64(negc, 1);
  append_i64(negc, -1);
  std::stringstream in4(negc);
  EXPECT_THROW(read_rle(in4), contract_error);

  // A claim of 2^20 rows with no row data fails at the first missing row,
  // not by preallocating 2^20 rows.
  std::string claim("SRLB");
  append_i64(claim, 1);
  append_i64(claim, 10);
  append_i64(claim, std::int64_t{1} << 20);
  std::stringstream in5(claim);
  EXPECT_THROW(read_rle(in5), contract_error);
}

TEST(Serialize, RejectsHostileTextHeaders) {
  // Run count exceeding the width.
  std::stringstream t1("SRLT\n4 1\n9 0 1 1 1 2 1 3 1\n");
  EXPECT_THROW(read_rle(t1), contract_error);
  // Implausible dimensions.
  std::stringstream t2("SRLT\n99999999999 99999999999\n");
  EXPECT_THROW(read_rle(t2), contract_error);
  // Negative run start.
  std::stringstream t3("SRLT\n10 1\n1 -3 4\n");
  EXPECT_THROW(read_rle(t3), contract_error);
  // Negative run length.
  std::stringstream t4("SRLT\n10 1\n1 3 -4\n");
  EXPECT_THROW(read_rle(t4), contract_error);
  // Non-numeric garbage where a count should be.
  std::stringstream t5("SRLT\n10 2\nbanana\n");
  EXPECT_THROW(read_rle(t5), contract_error);
}

TEST(Serialize, FileRoundTrip) {
  const RleImage img = sample_image();
  const std::string path = ::testing::TempDir() + "/sysrle_serialize_test.srl";
  write_rle_file(path, img);
  EXPECT_EQ(read_rle_file(path), img);
  EXPECT_THROW(read_rle_file(path + ".missing"), contract_error);
}

// The content-address contract: two in-memory representations of the same
// pixels must serialize to byte-identical canonical bytes and therefore
// fingerprint identically — a run split as (0,2)(2,3) versus the merged
// (0,5) is the classic case.
TEST(Serialize, CanonicalBytesRepresentationIndependent) {
  RleImage split(10, 1);
  split.set_row(0, RleRow({{0, 2}, {2, 3}}));
  RleImage merged(10, 1);
  merged.set_row(0, RleRow({{0, 5}}));
  ASSERT_FALSE(split.row(0).is_canonical());
  ASSERT_TRUE(merged.row(0).is_canonical());
  EXPECT_EQ(canonical_rle_bytes(split), canonical_rle_bytes(merged));
  EXPECT_EQ(canonical_fingerprint(split), canonical_fingerprint(merged));
}

// The streamed fingerprint must equal hashing the materialized canonical
// bytes — one byte sequence, two computations.
TEST(Serialize, CanonicalFingerprintMatchesBytes) {
  const RleImage img = sample_image();
  const std::string bytes = canonical_rle_bytes(img);
  EXPECT_EQ(canonical_fingerprint(img),
            fingerprint_bytes(bytes.data(), bytes.size()));
}

// The one content hash keys both store handles and by-value diff operands:
// stable across equal images, sensitive to content, and to dimensions even
// with zero runs.
TEST(Serialize, CanonicalFingerprintIsStableAndContentSensitive) {
  const auto make = [](std::uint64_t seed) {
    Rng rng(seed);
    RowGenParams p;
    p.width = 256;
    return generate_image(rng, 8, p);
  };
  EXPECT_EQ(canonical_fingerprint(make(1)), canonical_fingerprint(make(1)));
  EXPECT_NE(canonical_fingerprint(make(1)), canonical_fingerprint(make(2)));
  EXPECT_NE(canonical_fingerprint(RleImage(4, 4)),
            canonical_fingerprint(RleImage(4, 5)));
}

// Canonical bytes are valid SRLB: reading them back yields the same pixels
// (canonicalized), so the durable store's journal and snapshot rehydrate
// exactly the parse the in-memory store held.
TEST(Serialize, CanonicalBytesRoundTrip) {
  RleImage split(10, 2);
  split.set_row(0, RleRow({{0, 2}, {2, 3}}));
  split.set_row(1, RleRow({{4, 1}, {5, 2}}));
  std::stringstream ss(canonical_rle_bytes(split));
  const RleImage back = read_rle(ss);
  ASSERT_EQ(back.height(), 2);
  EXPECT_EQ(back.row(0), RleRow({{0, 5}}));
  EXPECT_EQ(back.row(1), RleRow({{4, 3}}));
}

// The counted size is the materialized size — the image store's budget
// charge — for canonical rows, split rows, and a 0-height image.
TEST(Serialize, CanonicalSizeMatchesBytes) {
  RleImage split(10, 2);
  split.set_row(0, RleRow({{0, 2}, {2, 3}}));
  split.set_row(1, RleRow({{4, 1}, {5, 2}, {8, 1}}));
  ASSERT_FALSE(split.row(0).is_canonical());
  for (const RleImage& img : {sample_image(), split, RleImage(7, 0)})
    EXPECT_EQ(canonical_rle_size(img), canonical_rle_bytes(img).size());
  EXPECT_EQ(canonical_rle_size(RleImage(7, 0)), 28u);  // bare SRLB header
}

// Pins the SRLB layout byte for byte: "SRLB", then little-endian i64
// version, width and height, then per row a run count and (start, length)
// pairs.  write_rle stores rows as given; the canonical bytes merge a split
// row first, so the split image's canonical form hits the same golden bytes
// and fingerprint.
TEST(Serialize, GoldenBytes) {
  RleImage img(16, 2);
  img.set_row(0, RleRow({{1, 3}, {10, 2}}));
  img.set_row(1, RleRow({{0, 16}}));
  RleImage split(16, 2);
  split.set_row(0, RleRow({{1, 3}, {10, 2}}));
  split.set_row(1, RleRow({{0, 9}, {9, 7}}));
  const std::string header =
      "53524c42"            // magic
      "0100000000000000"    // version
      "1000000000000000"    // width 16
      "0200000000000000"    // height 2
      "0200000000000000"    // row 0: 2 runs
      "0100000000000000" "0300000000000000"   // (1,3)
      "0a00000000000000" "0200000000000000";  // (10,2)
  const std::string golden = header +
      "0100000000000000"    // row 1: 1 run
      "0000000000000000" "1000000000000000";  // (0,16)
  const std::string split_golden = header +
      "0200000000000000"    // row 1: 2 runs
      "0000000000000000" "0900000000000000"   // (0,9)
      "0900000000000000" "0700000000000000";  // (9,7)

  std::stringstream plain, raw;
  write_rle(plain, img, RleFormat::kBinary);
  write_rle(raw, split, RleFormat::kBinary);
  EXPECT_EQ(to_hex(plain.str()), golden);
  EXPECT_EQ(to_hex(raw.str()), split_golden);
  EXPECT_EQ(to_hex(canonical_rle_bytes(img)), golden);
  EXPECT_EQ(to_hex(canonical_rle_bytes(split)), golden);
  EXPECT_EQ(canonical_fingerprint(img), 0x64e6fe4e14a1ab68ull);
  EXPECT_EQ(canonical_fingerprint(split), canonical_fingerprint(img));
}

// Runs whose end does not fit in an i64 (start near INT64_MAX) must be
// rejected as typed errors with no signed overflow on the way — the
// sanitizer build runs this.  Covers the width check, the ordering and
// overlap checks against an invalid previous run, the canonical check, and
// the same rows in SRLB (stream and span) and SRLT.
TEST(Serialize, RejectsOverflowingRunsWithoutUB) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::vector<std::vector<sysrle::Run>> rows = {
      {{kMax, 2}},
      {{kMax, kMax}},
      {{kMax - 3, 10}, {kMax - 1, 1}},
      {{kMax - 3, 10}, {kMax - 1, kMax}},
      {{kMax, 2}, {kMax, 2}},
      {{kMin, 1}, {kMax, kMax}},
      {{kMin, kMax}, {0, 1}},
  };
  for (const std::vector<sysrle::Run>& runs : rows) {
    std::string srlb("SRLB");
    append_i64(srlb, 1);   // version
    append_i64(srlb, 10);  // width
    append_i64(srlb, 1);   // height
    append_i64(srlb, static_cast<std::int64_t>(runs.size()));
    std::string srlt = "SRLT\n10 1\n" + std::to_string(runs.size());
    for (const sysrle::Run& r : runs) {
      append_i64(srlb, r.start);
      append_i64(srlb, r.length);
      srlt += ' ' + std::to_string(r.start) + ' ' + std::to_string(r.length);
    }
    srlt += '\n';
    std::istringstream binary(srlb);
    EXPECT_THROW(read_rle(binary), contract_error);
    EXPECT_THROW(read_rle(std::as_bytes(std::span(srlb))), contract_error);
    std::istringstream text(srlt);
    EXPECT_THROW(read_rle(text), contract_error);
    ValidateOptions opts;
    opts.width = 10;
    opts.require_canonical = true;
    EXPECT_FALSE(validate_runs(runs, opts).ok());
  }
}

// Different pixels must (for any realistic corpus) fingerprint differently;
// at minimum the canonical bytes differ.
TEST(Serialize, DifferentPixelsDifferentBytes) {
  RleImage a(10, 1);
  a.set_row(0, RleRow({{0, 5}}));
  RleImage b(10, 1);
  b.set_row(0, RleRow({{0, 6}}));
  EXPECT_NE(canonical_rle_bytes(a), canonical_rle_bytes(b));
  EXPECT_NE(canonical_fingerprint(a), canonical_fingerprint(b));
}

}  // namespace
}  // namespace sysrle
