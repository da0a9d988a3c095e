#include "bitmap/pbm_io.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace sysrle {
namespace {

/// Skips whitespace and '#' comments in a PBM header.
void skip_header_junk(std::istream& in) {
  for (;;) {
    const int c = in.peek();
    if (c == '#') {
      std::string line;
      std::getline(in, line);
    } else if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      in.get();
    } else {
      return;
    }
  }
}

/// PBM packs the leftmost pixel in a byte's MSB; BitRow keeps pixel x in
/// bit x % 64 of word x / 64 (LSB-first), so every byte is bit-reversed.
std::uint64_t reverse_bits_in_bytes(std::uint64_t v) {
  constexpr std::uint64_t k1 = 0x5555555555555555ull;
  constexpr std::uint64_t k2 = 0x3333333333333333ull;
  constexpr std::uint64_t k4 = 0x0f0f0f0f0f0f0f0full;
  v = ((v >> 1) & k1) | ((v & k1) << 1);
  v = ((v >> 2) & k2) | ((v & k2) << 2);
  return ((v >> 4) & k4) | ((v & k4) << 4);
}

pos_t read_header_int(std::istream& in) {
  skip_header_junk(in);
  long long v = -1;
  in >> v;
  SYSRLE_REQUIRE(in.good() && v >= 0, "PBM: malformed header integer");
  return static_cast<pos_t>(v);
}

}  // namespace

BitmapImage read_pbm(std::istream& in) {
  char p = 0, n = 0;
  in >> p >> n;
  SYSRLE_REQUIRE(in.good() && p == 'P' && (n == '1' || n == '4'),
                 "PBM: bad magic (expected P1 or P4)");
  const pos_t width = read_header_int(in);
  const pos_t height = read_header_int(in);
  BitmapImage img(width, height);

  if (n == '1') {
    for (pos_t y = 0; y < height; ++y) {
      for (pos_t x = 0; x < width; ++x) {
        skip_header_junk(in);
        const int c = in.get();
        SYSRLE_REQUIRE(c == '0' || c == '1', "PBM(P1): pixel is not 0/1");
        if (c == '1') img.set(x, y, true);
      }
    }
  } else {
    // P4: exactly one whitespace byte separates the header from pixel data.
    const int sep = in.get();
    SYSRLE_REQUIRE(sep == ' ' || sep == '\t' || sep == '\r' || sep == '\n',
                   "PBM(P4): missing header separator");
    const std::size_t bytes_per_row = static_cast<std::size_t>(width + 7) / 8;
    std::vector<unsigned char> bytes(bytes_per_row);
    for (pos_t y = 0; y < height; ++y) {
      in.read(reinterpret_cast<char*>(bytes.data()),
              static_cast<std::streamsize>(bytes_per_row));
      SYSRLE_REQUIRE(
          in.gcount() == static_cast<std::streamsize>(bytes_per_row),
          "PBM(P4): truncated pixel data");
      BitRow& row = img.mutable_row(y);
      std::vector<std::uint64_t>& words = row.mutable_words();
      for (std::size_t i = 0; i < bytes_per_row; ++i)
        words[i / 8] |= std::uint64_t{bytes[i]} << (8 * (i % 8));
      for (std::uint64_t& w : words) w = reverse_bits_in_bytes(w);
      row.mask_tail();  // padding bits past the width are ignored
    }
  }
  return img;
}

BitmapImage read_pbm_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SYSRLE_REQUIRE(in.is_open(), "PBM: cannot open file: " + path);
  return read_pbm(in);
}

void write_pbm(std::ostream& out, const BitmapImage& img, PbmFormat format) {
  const pos_t width = img.width();
  const pos_t height = img.height();
  if (format == PbmFormat::kAscii) {
    out << "P1\n" << width << ' ' << height << '\n';
    for (pos_t y = 0; y < height; ++y) {
      for (pos_t x = 0; x < width; ++x) {
        out << (img.get(x, y) ? '1' : '0');
        // Keep P1 lines under the spec's 70-character limit.
        if ((x + 1) % 64 == 0 || x + 1 == width) {
          out << '\n';
        } else {
          out << ' ';
        }
      }
    }
  } else {
    out << "P4\n" << width << ' ' << height << '\n';
    const pos_t bytes_per_row = (width + 7) / 8;
    for (pos_t y = 0; y < height; ++y) {
      for (pos_t bx = 0; bx < bytes_per_row; ++bx) {
        unsigned char byte = 0;
        for (int bit = 0; bit < 8; ++bit) {
          const pos_t x = bx * 8 + bit;
          if (x < width && img.get(x, y)) byte |= static_cast<unsigned char>(0x80 >> bit);
        }
        out.put(static_cast<char>(byte));
      }
    }
  }
  SYSRLE_ENSURE(out.good(), "PBM: write failed");
}

void write_pbm_file(const std::string& path, const BitmapImage& img,
                    PbmFormat format) {
  std::ofstream out(path, std::ios::binary);
  SYSRLE_REQUIRE(out.is_open(), "PBM: cannot open file for write: " + path);
  write_pbm(out, img, format);
}

}  // namespace sysrle
