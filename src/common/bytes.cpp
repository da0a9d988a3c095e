#include "common/bytes.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <istream>

#include "common/assert.hpp"

namespace sysrle {

void write_all(int fd, std::string_view data, const char* who,
               const std::string& path) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    SYSRLE_REQUIRE(n >= 0, std::string(who) + ": write failed for " + path +
                               ": " + std::strerror(errno));
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

namespace {

/// Appends everything left in `in` to `out` with chunked reads, sized from
/// what the stream reports available so the file is copied once.  Returns
/// false on a stream error.
bool read_rest(std::istream& in, std::string& out) {
  constexpr std::streamsize kMinChunk = std::streamsize{1} << 14;
  while (in.peek() != std::char_traits<char>::eof()) {
    const std::size_t used = out.size();
    const std::streamsize chunk = std::max(in.rdbuf()->in_avail(), kMinChunk);
    out.resize(used + static_cast<std::size_t>(chunk));
    in.read(out.data() + used, chunk);
    out.resize(used + static_cast<std::size_t>(in.gcount()));
  }
  return !in.bad();
}

}  // namespace

std::optional<std::string> read_whole_file(const std::string& path,
                                           const char* who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string data;
  SYSRLE_REQUIRE(read_rest(in, data),
                 std::string(who) + ": read failed for " + path);
  return data;
}

}  // namespace sysrle
