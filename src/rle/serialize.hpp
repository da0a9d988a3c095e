#pragma once
// On-disk formats for RLE images, so compressed imagery can move between
// tools without ever being decompressed:
//   * a human-readable text format ("SRLT"), convenient for fixtures,
//   * a compact little-endian binary format ("SRLB"), for real data.
// Readers validate every row (ordering, overlap, width) and throw
// contract_error on malformed input.  One encoder and one decoder handle
// SRLB, over the shared little-endian codec (common/bytes.hpp); the decoder
// copies each row's run records straight into the row's runs.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "rle/rle_image.hpp"

namespace sysrle {

/// Serialization flavour.
enum class RleFormat {
  kText,    ///< "SRLT" — one row per line: count followed by start/len pairs
  kBinary,  ///< "SRLB" — little-endian 64-bit fields
};

/// Writes an RLE image to a stream.
void write_rle(std::ostream& out, const RleImage& img,
               RleFormat format = RleFormat::kBinary);

/// Reads an RLE image from a stream (format auto-detected from the magic).
/// Consumes exactly one image and leaves the stream just past it (for SRLT,
/// past the newline that ends its last row), so images can be read back to
/// back.  SRLB goes through the same decoder as the span overload, reading
/// the stream in place with no copy of the whole encoding.  A stream error
/// mid-image throws "stream read failed", short input "truncated stream".
RleImage read_rle(std::istream& in);

/// Decodes SRLB bytes (magic included) with the same checks and errors as
/// the stream reader; bytes after the last row are ignored.
RleImage read_rle(std::span<const std::byte> bytes);

/// File variants.
void write_rle_file(const std::string& path, const RleImage& img,
                    RleFormat format = RleFormat::kBinary);
RleImage read_rle_file(const std::string& path);

/// Canonical serialized bytes: the SRLB encoding of `img` with every row
/// canonicalized (adjacent runs merged) first.  Two in-memory
/// representations of the same pixels — e.g. a run split as (0,2)(2,3)
/// versus the merged (0,5) — produce byte-identical output, so these bytes
/// are a stable content identity for the image store.
std::string canonical_rle_bytes(const RleImage& img);

/// canonical_rle_bytes(img).size(), counted without materializing the
/// string: the image store's byte-budget charge.
std::size_t canonical_rle_size(const RleImage& img);

/// 64-bit FNV-1a over an arbitrary byte range.
std::uint64_t fingerprint_bytes(const void* data, std::size_t size);

/// FNV-1a fingerprint of canonical_rle_bytes(img), computed by streaming the
/// same byte sequence through the hash without materializing the string.
/// Representation-independent: equal pixels always fingerprint equal.
std::uint64_t canonical_fingerprint(const RleImage& img);

}  // namespace sysrle
