#include "store/store_snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "store/store_journal.hpp"

namespace sysrle {

namespace {

constexpr char kMagic[4] = {'S', 'R', 'L', 'S'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxLabel = 1u << 16;
constexpr std::uint64_t kMaxData = 1u << 28;

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  SYSRLE_REQUIRE(dfd >= 0,
                 "write_snapshot: cannot open directory " + dir + ": " +
                     std::strerror(errno));
  const int rc = ::fsync(dfd);
  ::close(dfd);
  SYSRLE_REQUIRE(rc == 0, "write_snapshot: directory fsync failed for " + dir);
}

/// Decodes the entry at the cursor of `in` (a reader over `data`) into
/// `entry`.  Returns the salvage reason when the entry is bad, nullptr when
/// it loaded clean.
const char* decode_entry(ByteReader& in, std::string_view data,
                         SnapshotEntry& entry) {
  const std::size_t start = in.offset();
  const auto handle = in.read<std::uint64_t>();
  const auto label_len = in.read<std::uint32_t>();
  if (!handle || !label_len) return "torn_entry";
  if (*label_len >= kMaxLabel) return "oversize_label";
  const auto label = in.take(*label_len);
  const auto data_len = in.read<std::uint64_t>();
  const std::size_t crc_covered = in.offset() - start;  // then the data
  const auto crc = in.read<std::uint32_t>();
  if (!label || !data_len || !crc) return "torn_entry";
  if (*data_len >= kMaxData) return "oversize_entry";
  const auto bytes = in.take(static_cast<std::size_t>(*data_len));
  if (!bytes) return "torn_entry";
  if (crc32_bytes(data.substr(start, crc_covered), *bytes) != *crc)
    return "crc_mismatch";
  entry = {*handle, std::string(*label), std::string(*bytes)};
  return nullptr;
}

}  // namespace

void write_snapshot(const std::string& path,
                    const std::vector<SnapshotEntry>& entries) {
  std::string blob(kMagic, sizeof(kMagic));
  append_le<std::uint32_t>(blob, kVersion);
  append_le<std::uint64_t>(blob, entries.size());
  for (const SnapshotEntry& e : entries) {
    SYSRLE_REQUIRE(e.label.size() < kMaxLabel,
                   "write_snapshot: label too long");
    SYSRLE_REQUIRE(e.bytes.size() < kMaxData,
                   "write_snapshot: entry bytes exceed cap");
    const std::size_t head = blob.size();
    append_le<std::uint64_t>(blob, e.handle);
    append_le<std::uint32_t>(blob, static_cast<std::uint32_t>(e.label.size()));
    blob.append(e.label);
    append_le<std::uint64_t>(blob, e.bytes.size());
    // The CRC covers every field except itself, in file order.
    const std::uint32_t crc =
        crc32_bytes(std::string_view(blob).substr(head), e.bytes);
    append_le<std::uint32_t>(blob, crc);
    blob.append(e.bytes);
  }

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  SYSRLE_REQUIRE(fd >= 0, "write_snapshot: cannot open " + tmp + ": " +
                              std::strerror(errno));
  write_all(fd, blob, "write_snapshot", tmp);
  const int frc = ::fsync(fd);
  ::close(fd);
  SYSRLE_REQUIRE(frc == 0, "write_snapshot: fsync failed for " + tmp);
  SYSRLE_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "write_snapshot: rename to " + path + " failed: " +
                     std::strerror(errno));
  fsync_parent_dir(path);
}

SnapshotLoadResult load_snapshot(const std::string& path) {
  SnapshotLoadResult result;
  const auto file = read_whole_file(path, "load_snapshot");
  if (!file) return result;  // missing file == empty snapshot
  result.file_present = true;
  const std::string_view data = *file;

  ByteReader in(byte_span(data));
  const bool header_ok =
      in.take(sizeof(kMagic)) == std::string_view(kMagic, sizeof(kMagic)) &&
      in.read<std::uint32_t>() == kVersion;
  const auto count = header_ok ? in.read<std::uint64_t>() : std::nullopt;
  if (!count) {
    result.header_ok = false;
    result.salvaged_tail_bytes = data.size();
    result.tail_reason = "bad_header";
    return result;
  }
  result.declared_entries = *count;

  std::size_t pos = in.offset();  // end of the clean prefix
  const char* reason = nullptr;
  for (std::uint64_t i = 0; i < result.declared_entries; ++i) {
    SnapshotEntry entry;
    reason = decode_entry(in, data, entry);
    if (reason) break;
    result.entries.push_back(std::move(entry));
    pos = in.offset();
  }
  if (!reason && pos != data.size()) reason = "trailing_bytes";
  if (reason) {
    result.salvaged_tail_bytes = data.size() - pos;
    result.tail_reason = reason;
  }
  return result;
}

}  // namespace sysrle
