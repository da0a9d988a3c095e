#include "rle/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/assert.hpp"
#include "rle/validate.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {
namespace {

constexpr char kTextMagic[4] = {'S', 'R', 'L', 'T'};
constexpr char kBinaryMagic[4] = {'S', 'R', 'L', 'B'};

/// Sanity cap on header-declared dimensions.  A corrupted or hostile header
/// must never drive allocations; 16M pixels per side is far beyond any
/// scanline workload this code targets.
constexpr std::int64_t kMaxDimension = std::int64_t{1} << 24;

/// Never reserve more than this many elements on the say-so of a header
/// field alone; beyond it, growth is paid for by actually present data.
constexpr std::int64_t kMaxTrustedReserve = 4096;

void put_i64(std::ostream& out, std::int64_t v) {
  unsigned char buf[8];
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(u >> (8 * i));
  out.write(reinterpret_cast<const char*>(buf), 8);
}

std::int64_t get_i64(std::istream& in) {
  unsigned char buf[8];
  in.read(reinterpret_cast<char*>(buf), 8);
  SYSRLE_REQUIRE(in.good(), "RLE(binary): truncated stream");
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i) u |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return static_cast<std::int64_t>(u);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Feeds the canonical SRLB byte sequence of `img` to `sink(data, size)`.
/// Shared by canonical_rle_bytes, canonical_rle_size and
/// canonical_fingerprint so the string, its size and the streamed hash can
/// never disagree about the encoding.
template <typename Sink>
void emit_canonical(const RleImage& img, Sink&& sink) {
  auto put = [&sink](std::int64_t v) {
    unsigned char buf[8];
    const auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i)
      buf[i] = static_cast<unsigned char>(u >> (8 * i));
    sink(reinterpret_cast<const char*>(buf), std::size_t{8});
  };
  sink(kBinaryMagic, std::size_t{4});
  put(1);  // version, matching write_rle's SRLB header
  put(img.width());
  put(img.height());
  for (pos_t y = 0; y < img.height(); ++y) {
    const RleRow& raw = img.row(y);
    // Avoid the canonicalizing copy when the row is already maximally
    // compressed (the common case for generator and engine output).
    const RleRow merged = raw.is_canonical() ? RleRow{} : raw.canonical();
    const RleRow& row = raw.is_canonical() ? raw : merged;
    put(static_cast<std::int64_t>(row.run_count()));
    for (const Run& r : row) {
      put(r.start);
      put(r.length);
    }
  }
}

/// Wraps raw runs in an RleRow after validating them against the width.
RleRow checked_row(std::vector<Run> runs, pos_t width) {
  ValidateOptions opts;
  opts.width = width;
  const RowValidationReport report = validate_runs(runs, opts);
  SYSRLE_REQUIRE(report.ok(), "RLE: invalid row in stream — " + report.to_string());
  return RleRow(std::move(runs));
}

RleImage read_text(std::istream& in) {
  long long width = -1, height = -1;
  in >> width >> height;
  SYSRLE_REQUIRE(in.good() && width >= 0 && height >= 0,
                 "RLE(text): malformed header");
  SYSRLE_REQUIRE(width <= kMaxDimension && height <= kMaxDimension,
                 "RLE(text): implausible dimensions");
  std::vector<RleRow> rows;
  rows.reserve(static_cast<std::size_t>(
      std::min<long long>(height, kMaxTrustedReserve)));
  for (long long y = 0; y < height; ++y) {
    long long count = -1;
    in >> count;
    SYSRLE_REQUIRE(in.good() && count >= 0, "RLE(text): malformed run count");
    // A width-W row holds at most W runs (length-1 runs may be adjacent).
    SYSRLE_REQUIRE(count <= width, "RLE(text): run count exceeds width");
    std::vector<Run> runs;
    runs.reserve(static_cast<std::size_t>(
        std::min<long long>(count, kMaxTrustedReserve)));
    for (long long i = 0; i < count; ++i) {
      long long s = 0, l = 0;
      in >> s >> l;
      SYSRLE_REQUIRE(in.good(), "RLE(text): truncated row");
      runs.emplace_back(static_cast<pos_t>(s), static_cast<len_t>(l));
    }
    rows.push_back(checked_row(std::move(runs), static_cast<pos_t>(width)));
  }
  return RleImage(static_cast<pos_t>(width), std::move(rows));
}

RleImage read_binary(std::istream& in) {
  const std::int64_t version = get_i64(in);
  SYSRLE_REQUIRE(version == 1, "RLE(binary): unsupported version");
  const pos_t width = get_i64(in);
  const pos_t height = get_i64(in);
  SYSRLE_REQUIRE(width >= 0 && height >= 0, "RLE(binary): bad dimensions");
  SYSRLE_REQUIRE(width <= kMaxDimension && height <= kMaxDimension,
                 "RLE(binary): implausible dimensions");
  std::vector<RleRow> rows;
  rows.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(height, kMaxTrustedReserve)));
  for (pos_t y = 0; y < height; ++y) {
    const std::int64_t count = get_i64(in);
    SYSRLE_REQUIRE(count >= 0 && count <= width, "RLE(binary): bad run count");
    std::vector<Run> runs;
    runs.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(count, kMaxTrustedReserve)));
    for (std::int64_t i = 0; i < count; ++i) {
      const pos_t s = get_i64(in);
      const len_t l = get_i64(in);
      runs.emplace_back(s, l);
    }
    rows.push_back(checked_row(std::move(runs), width));
  }
  return RleImage(width, std::move(rows));
}

}  // namespace

void write_rle(std::ostream& out, const RleImage& img, RleFormat format) {
  TELEMETRY_SPAN("rle.write", "rle");
  const bool telem = telemetry_enabled();
  const std::streampos pos_before = telem ? out.tellp() : std::streampos(-1);
  if (format == RleFormat::kText) {
    out.write(kTextMagic, 4);
    out << '\n' << img.width() << ' ' << img.height() << '\n';
    for (pos_t y = 0; y < img.height(); ++y) {
      const RleRow& row = img.row(y);
      out << row.run_count();
      for (const Run& r : row) out << ' ' << r.start << ' ' << r.length;
      out << '\n';
    }
  } else {
    out.write(kBinaryMagic, 4);
    put_i64(out, 1);  // version
    put_i64(out, img.width());
    put_i64(out, img.height());
    for (pos_t y = 0; y < img.height(); ++y) {
      const RleRow& row = img.row(y);
      put_i64(out, static_cast<std::int64_t>(row.run_count()));
      for (const Run& r : row) {
        put_i64(out, r.start);
        put_i64(out, r.length);
      }
    }
  }
  SYSRLE_ENSURE(out.good(), "RLE: write failed");

  if (telem) {
    MetricsRegistry& m = global_metrics();
    m.add("serialize.images_written");
    const std::streampos pos_after = out.tellp();
    if (pos_before >= std::streampos(0) && pos_after >= pos_before)
      m.add("serialize.bytes_out",
            static_cast<std::uint64_t>(pos_after - pos_before));
  }
}

RleImage read_rle(std::istream& in) {
  TELEMETRY_SPAN("rle.read", "rle");
  const bool telem = telemetry_enabled();
  const std::streampos pos_before = telem ? in.tellg() : std::streampos(-1);
  try {
    char magic[4] = {};
    in.read(magic, 4);
    SYSRLE_REQUIRE(in.good(), "RLE: missing magic");
    RleImage img = [&] {
      if (std::equal(magic, magic + 4, kTextMagic)) return read_text(in);
      if (std::equal(magic, magic + 4, kBinaryMagic)) return read_binary(in);
      SYSRLE_REQUIRE(false, "RLE: unknown magic (expected SRLT or SRLB)");
      return RleImage(0, 0);  // unreachable
    }();
    if (telem) {
      MetricsRegistry& m = global_metrics();
      m.add("serialize.images_read");
      // tellg() is -1 on a stream whose eofbit is set; the byte count is
      // best-effort and simply skipped then.
      const std::streampos pos_after = in.tellg();
      if (pos_before >= std::streampos(0) && pos_after >= pos_before)
        m.add("serialize.bytes_in",
              static_cast<std::uint64_t>(pos_after - pos_before));
    }
    return img;
  } catch (const contract_error&) {
    // A malformed stream is rejected input, not a crash: count it so the
    // operator can see hostile/corrupt data arriving, then rethrow.
    if (telem) global_metrics().add("serialize.rejects");
    throw;
  }
}

void write_rle_file(const std::string& path, const RleImage& img,
                    RleFormat format) {
  std::ofstream out(path, std::ios::binary);
  SYSRLE_REQUIRE(out.is_open(), "RLE: cannot open for write: " + path);
  write_rle(out, img, format);
}

RleImage read_rle_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SYSRLE_REQUIRE(in.is_open(), "RLE: cannot open: " + path);
  return read_rle(in);
}

std::string canonical_rle_bytes(const RleImage& img) {
  std::string bytes;
  // Header (4 + 24) plus run-count word per row; runs grow it as needed.
  bytes.reserve(28 + static_cast<std::size_t>(img.height()) * 8);
  emit_canonical(img, [&bytes](const char* data, std::size_t size) {
    bytes.append(data, size);
  });
  return bytes;
}

std::size_t canonical_rle_size(const RleImage& img) {
  std::size_t size = 0;
  emit_canonical(img, [&size](const char*, std::size_t n) { size += n; });
  return size;
}

std::uint64_t fingerprint_bytes(const void* data, std::size_t size) {
  std::uint64_t h = kFnvOffset;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t canonical_fingerprint(const RleImage& img) {
  std::uint64_t h = kFnvOffset;
  emit_canonical(img, [&h](const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= kFnvPrime;
    }
  });
  return h;
}

}  // namespace sysrle
