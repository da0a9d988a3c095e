#include "rle/serialize.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <type_traits>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "rle/validate.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {
namespace {

constexpr char kTextMagic[4] = {'S', 'R', 'L', 'T'};
constexpr char kBinaryMagic[4] = {'S', 'R', 'L', 'B'};
constexpr std::int64_t kBinaryVersion = 1;

/// Sanity cap on header-declared dimensions.  A corrupted or hostile header
/// must never drive allocations; 16M pixels per side is far beyond any
/// scanline workload this code targets.
constexpr std::int64_t kMaxDimension = std::int64_t{1} << 24;

/// Never reserve more than this many elements on the say-so of a header
/// field alone; beyond it, growth is paid for by actually present data.
constexpr std::int64_t kMaxTrustedReserve = 4096;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Continues a 64-bit FNV-1a hash `h` over a byte range.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// The one SRLB encoder: feeds the encoding of `img` to `sink(data, size)`,
/// canonicalizing each row first when `canonical` is set.  write_rle streams
/// rows as stored; canonical_rle_bytes, canonical_rle_size and
/// canonical_fingerprint share the canonical form, so the string, its size
/// and the streamed hash can never disagree about the encoding.
template <typename Sink>
void encode_binary(const RleImage& img, bool canonical, Sink&& sink) {
  const auto field = [&sink](std::int64_t v) {
    const auto bytes = le_bytes<std::uint64_t>(static_cast<std::uint64_t>(v));
    sink(bytes.data(), bytes.size());
  };
  sink(kBinaryMagic, std::size_t{4});
  field(kBinaryVersion);
  field(img.width());
  field(img.height());
  for (pos_t y = 0; y < img.height(); ++y) {
    const RleRow& raw = img.row(y);
    // Avoid the canonicalizing copy when the row is already maximally
    // compressed (the common case for generator and engine output).
    const bool merge = canonical && !raw.is_canonical();
    const RleRow merged = merge ? raw.canonical() : RleRow{};
    const RleRow& row = merge ? merged : raw;
    field(static_cast<std::int64_t>(row.run_count()));
    for (const Run& r : row) {
      field(r.start);
      field(r.length);
    }
  }
}

}  // namespace

/// Wraps raw runs in an RleRow after validating them against the width: the
/// decoders' one check of a row (RleRow's friend, so not repeated there).
RleRow checked_row(std::vector<Run> runs, pos_t width) {
  ValidateOptions opts;
  opts.width = width;
  const RowValidationReport report = validate_runs(runs, opts);
  SYSRLE_REQUIRE(report.ok(), "RLE: invalid row in stream — " + report.to_string());
  return RleRow(std::move(runs), RleRow::Checked{});
}

namespace {

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
  // The newline write_rle ends the image with is part of it: consume it so
  // the stream is left just past the image.
  if (in.peek() == '\n') in.get();
  return RleImage(static_cast<pos_t>(width), std::move(rows));
}

static_assert(std::is_trivially_copyable_v<Run> && sizeof(Run) == 16 &&
                  offsetof(Run, start) == 0 && offsetof(Run, length) == 8,
              "Run must match the SRLB run record (i64 start, i64 length), "
              "so a row's records copy straight into its runs");

/// SRLB byte source over a stream: reads exactly what the decoder asks for,
/// so the stream is left just past the image, and counts the bytes read.
/// A stream error (bad(), e.g. a streambuf that threw) is its own typed
/// failure, distinct from short input.
class StreamSource {
 public:
  explicit StreamSource(std::istream& in) : in_(in) {}

  std::size_t offset() const { return consumed_; }

  /// Copies exactly the next `n` bytes into `dst`; false on short input.
  bool copy(void* dst, std::size_t n) {
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    consumed_ += static_cast<std::size_t>(in_.gcount());
    SYSRLE_REQUIRE(!in_.bad(), "RLE(binary): stream read failed");
    return static_cast<std::size_t>(in_.gcount()) == n;
  }

 private:
  std::istream& in_;
  std::size_t consumed_ = 0;
};

/// The one SRLB decoder, over any byte source `in` (ByteReader or
/// StreamSource) positioned just after the magic.  Each row's run records
/// are copied straight into its runs, in chunks of at most
/// kMaxTrustedReserve runs so allocation is paid for by bytes present.
template <typename Source>
RleImage decode_binary(Source& in) {
  const auto field = [&in] {
    std::uint64_t v = 0;
    SYSRLE_REQUIRE(in.copy(&v, sizeof v), "RLE(binary): truncated stream");
    return static_cast<std::int64_t>(v);
  };
  const std::int64_t version = field();
  SYSRLE_REQUIRE(version == kBinaryVersion, "RLE(binary): unsupported version");
  const pos_t width = field();
  const pos_t height = field();
  SYSRLE_REQUIRE(width >= 0 && height >= 0, "RLE(binary): bad dimensions");
  SYSRLE_REQUIRE(width <= kMaxDimension && height <= kMaxDimension,
                 "RLE(binary): implausible dimensions");
  std::vector<RleRow> rows;
  rows.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(height, kMaxTrustedReserve)));
  for (pos_t y = 0; y < height; ++y) {
    const std::int64_t count = field();
    SYSRLE_REQUIRE(count >= 0 && count <= width, "RLE(binary): bad run count");
    const auto total = static_cast<std::size_t>(count);
    std::vector<Run> runs;
    for (std::size_t done = 0; done < total;) {
      const std::size_t chunk = std::min<std::size_t>(
          total - done, static_cast<std::size_t>(kMaxTrustedReserve));
      runs.resize(done + chunk);
      SYSRLE_REQUIRE(in.copy(runs.data() + done, chunk * sizeof(Run)),
                     "RLE(binary): truncated stream");
      done += chunk;
    }
    rows.push_back(checked_row(std::move(runs), width));
  }
  return RleImage(width, std::move(rows));
}

/// Runs one read under the "rle.read" span and the serialize.* counters.
/// `read(consumed)` returns the image and sets the bytes it decoded.
template <typename Read>
RleImage counted_read(Read&& read) {
  TELEMETRY_SPAN("rle.read", "rle");
  const bool telem = telemetry_enabled();
  try {
    std::size_t consumed = 0;
    RleImage img = read(consumed);
    if (telem) global_metrics().add("serialize.images_read");
    if (telem && consumed > 0)
      global_metrics().add("serialize.bytes_in", consumed);
    return img;
  } catch (const contract_error&) {
    // A malformed stream is rejected input, not a crash: count it so the
    // operator can see hostile/corrupt data arriving, then rethrow.
    if (telem) global_metrics().add("serialize.rejects");
    throw;
  }
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
    encode_binary(img, false, [&out](const char* data, std::size_t size) {
      out.write(data, static_cast<std::streamsize>(size));
    });
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

RleImage read_rle(std::span<const std::byte> bytes) {
  return counted_read([bytes](std::size_t& consumed) {
    ByteReader in(bytes);
    SYSRLE_REQUIRE(in.take(4) == std::string_view(kBinaryMagic, 4),
                   "RLE: missing or unknown magic (expected SRLB)");
    RleImage img = decode_binary(in);
    consumed = in.offset();
    return img;
  });
}

RleImage read_rle(std::istream& in) {
  return counted_read([&in](std::size_t& consumed) {
    char magic[4] = {};
    in.read(magic, 4);
    SYSRLE_REQUIRE(in.good(), "RLE: missing magic");
    if (std::equal(magic, magic + 4, kTextMagic)) {
      const std::streampos start = in.tellg();
      RleImage img = read_text(in);
      // tellg() is -1 once the text reader hits end of file; the byte count
      // is then skipped.
      const std::streampos end = in.tellg();
      if (start >= std::streampos(0) && end >= start)
        consumed = 4 + static_cast<std::size_t>(end - start);
      return img;
    }
    SYSRLE_REQUIRE(std::equal(magic, magic + 4, kBinaryMagic),
                   "RLE: unknown magic (expected SRLT or SRLB)");
    StreamSource source(in);
    RleImage img = decode_binary(source);
    consumed = 4 + source.offset();
    return img;
  });
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
  encode_binary(img, true, [&bytes](const char* data, std::size_t size) {
    bytes.append(data, size);
  });
  return bytes;
}

std::size_t canonical_rle_size(const RleImage& img) {
  std::size_t size = 0;
  encode_binary(img, true, [&size](const char*, std::size_t n) { size += n; });
  return size;
}

std::uint64_t fingerprint_bytes(const void* data, std::size_t size) {
  return fnv1a(kFnvOffset, data, size);
}

std::uint64_t canonical_fingerprint(const RleImage& img) {
  std::uint64_t h = kFnvOffset;
  encode_binary(img, true, [&h](const char* data, std::size_t size) {
    h = fnv1a(h, data, size);
  });
  return h;
}

}  // namespace sysrle
