#pragma once
// Little-endian byte codec shared by every persisted format: SRLB images
// (rle/serialize.hpp), SRLJ journal records and SRLS snapshot entries
// (store/).  Fields are unsigned integers stored least significant byte
// first; signed fields travel as their two's-complement bits.  Reads go
// through ByteReader, a cursor that reports short input instead of reading
// past the end of its span.

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace sysrle {

static_assert(std::endian::native == std::endian::little,
              "the byte codec copies fields in host order");

/// The little-endian bytes of `v`.  T is always spelled out at the call
/// site, so a field's width is explicit in every format.
template <std::unsigned_integral T>
std::array<char, sizeof(T)> le_bytes(std::type_identity_t<T> v) {
  std::array<char, sizeof(T)> out;
  std::memcpy(out.data(), &v, sizeof(T));
  return out;
}

/// Appends the little-endian bytes of `v` to `out`.
template <std::unsigned_integral T>
void append_le(std::string& out, std::type_identity_t<T> v) {
  const std::array<char, sizeof(T)> bytes = le_bytes<T>(v);
  out.append(bytes.data(), bytes.size());
}

/// Views a byte string as raw bytes.
inline std::span<const std::byte> byte_span(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Bounds-checked read cursor over a byte span.  A read that would run past
/// the end returns std::nullopt and leaves the cursor where it was.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// The next sizeof(T) bytes as a little-endian T.
  template <std::unsigned_integral T>
  std::optional<T> read() {
    if (remaining() < sizeof(T)) return std::nullopt;
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Copies exactly the next `n` bytes into `dst`; false on short input.
  bool copy(void* dst, std::size_t n) {
    if (remaining() < n) return false;
    if (n > 0) std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// The next `n` bytes, viewed in place.
  std::optional<std::string_view> take(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    const std::string_view out(
        reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Writes all of `data` to `fd`, retrying short writes and EINTR.  Throws
/// contract_error "<who>: write failed for <path>: <reason>" otherwise.
void write_all(int fd, std::string_view data, const char* who,
               const std::string& path);

/// The whole content of the file at `path`, or std::nullopt when it cannot
/// be opened.  Throws contract_error "<who>: read failed for <path>" on a
/// read error.
std::optional<std::string> read_whole_file(const std::string& path,
                                           const char* who);

}  // namespace sysrle
