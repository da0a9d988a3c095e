#include "store/store_journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "telemetry/flight_recorder.hpp"

namespace sysrle {

namespace {

constexpr char kMagic[4] = {'S', 'R', 'L', 'J'};
constexpr std::size_t kHeaderBytes = 8;  // magic + u32 version
constexpr std::uint32_t kMaxLabel = 1u << 16;

bool header_ok(std::string_view bytes) {
  ByteReader in(byte_span(bytes));
  return in.take(sizeof(kMagic)) == std::string_view(kMagic, sizeof(kMagic)) &&
         in.read<std::uint32_t>() == StoreJournal::kVersion;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& table = crc_table();
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  return crc;
}

/// The record CRC covers the 4 length-prefix bytes followed by the payload,
/// so framing corruption is as detectable as payload corruption.
std::uint32_t record_crc(std::uint32_t payload_len, std::string_view payload) {
  const auto len_le = le_bytes<std::uint32_t>(payload_len);
  return crc32_bytes({len_le.data(), len_le.size()}, payload);
}

/// Decodes the record at the cursor into `record`.  Returns the salvage
/// reason when the record is bad, nullptr when it decoded clean.
const char* decode_record(ByteReader& in, JournalRecord& record) {
  record.offset = in.offset();
  const auto len = in.read<std::uint32_t>();
  const auto crc = in.read<std::uint32_t>();
  if (!len || !crc) return "torn_frame";
  if (*len > StoreJournal::kMaxPayload) return "oversize_length";
  const auto payload = in.take(*len);
  if (!payload) return "torn_payload";
  if (record_crc(*len, *payload) != *crc) return "crc_mismatch";
  record.length = 8 + static_cast<std::uint64_t>(*len);
  // The CRC says these are the bytes the writer wrote; a payload that still
  // does not decode is a writer/reader version skew or an unknown kind.
  ByteReader body(byte_span(*payload));
  const auto kind = body.read<std::uint8_t>();
  const auto handle = body.read<std::uint64_t>();
  if (!kind || !handle) return "bad_payload";
  record.handle = *handle;
  if (*kind == static_cast<std::uint8_t>(JournalRecordKind::kEvict)) {
    record.kind = JournalRecordKind::kEvict;
    return body.remaining() == 0 ? nullptr : "bad_payload";
  }
  const auto label_len = body.read<std::uint32_t>();
  if (*kind != static_cast<std::uint8_t>(JournalRecordKind::kRegister) ||
      !label_len || *label_len >= kMaxLabel)
    return "bad_payload";
  const auto label = body.take(*label_len);
  const auto data_len = body.read<std::uint64_t>();
  if (!label || !data_len || *data_len != body.remaining())
    return "bad_payload";
  record.kind = JournalRecordKind::kRegister;
  record.label = *label;
  record.bytes = *body.take(body.remaining());
  return nullptr;
}

}  // namespace

std::uint32_t crc32_bytes(std::string_view head, std::string_view body) {
  std::uint32_t crc = crc32_update(0xFFFFFFFFu, head.data(), head.size());
  crc = crc32_update(crc, body.data(), body.size());
  return crc ^ 0xFFFFFFFFu;
}

StoreJournal::StoreJournal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  SYSRLE_REQUIRE(fd_ >= 0, "StoreJournal: cannot open " + path_ + ": " +
                               std::strerror(errno));
  struct stat st {};
  SYSRLE_REQUIRE(::fstat(fd_, &st) == 0,
                 "StoreJournal: fstat failed for " + path_);
  if (st.st_size == 0) {
    std::string header(kMagic, sizeof(kMagic));
    append_le<std::uint32_t>(header, kVersion);
    write_all(fd_, header, "StoreJournal", path_);
    SYSRLE_REQUIRE(::fsync(fd_) == 0,
                   "StoreJournal: fsync failed for " + path_);
    file_bytes_ = header.size();
  } else {
    char buf[kHeaderBytes] = {};
    const ssize_t n = ::pread(fd_, buf, kHeaderBytes, 0);
    const bool ok = n >= 0 && header_ok({buf, static_cast<std::size_t>(n)});
    SYSRLE_REQUIRE(ok, "StoreJournal: " + path_ +
                           " exists but is not a v1 journal (salvage first)");
    file_bytes_ = static_cast<std::uint64_t>(st.st_size);
    SYSRLE_REQUIRE(::lseek(fd_, 0, SEEK_END) >= 0,
                   "StoreJournal: seek failed for " + path_);
  }
}

StoreJournal::~StoreJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void StoreJournal::append_record_locked(std::string& record) {
  const std::string_view payload = std::string_view(record).substr(8);
  SYSRLE_REQUIRE(payload.size() <= kMaxPayload,
                 "StoreJournal: record payload exceeds kMaxPayload");
  const auto len = static_cast<std::uint32_t>(payload.size());
  const auto len_le = le_bytes<std::uint32_t>(len);
  const auto crc_le = le_bytes<std::uint32_t>(record_crc(len, payload));
  std::memcpy(record.data(), len_le.data(), len_le.size());
  std::memcpy(record.data() + 4, crc_le.data(), crc_le.size());
  write_all(fd_, record, "StoreJournal", path_);
  file_bytes_ += record.size();
  ++stats_.appends;
  stats_.appended_bytes += record.size();
  SYSRLE_REQUIRE(::fsync(fd_) == 0,
                 "StoreJournal: fsync failed for " + path_);
  ++stats_.fsyncs;
}

void StoreJournal::append_register(ImageHandle handle,
                                   const std::string& label,
                                   const std::string& bytes) {
  SYSRLE_REQUIRE(label.size() < kMaxLabel,
                 "StoreJournal: label too long to journal");
  // 8 frame bytes (length, CRC) are filled in by append_record_locked.
  std::string record(8, '\0');
  record.reserve(8 + 1 + 8 + 4 + label.size() + 8 + bytes.size());
  record.push_back(static_cast<char>(JournalRecordKind::kRegister));
  append_le<std::uint64_t>(record, handle);
  append_le<std::uint32_t>(record, static_cast<std::uint32_t>(label.size()));
  record.append(label);
  append_le<std::uint64_t>(record, bytes.size());
  record.append(bytes);
  const std::lock_guard<std::mutex> lock(mu_);
  append_record_locked(record);
  flight_record(FlightEventKind::kJournalAppend, RequestContext{}, "register",
                handle);
}

void StoreJournal::append_evict(ImageHandle handle) {
  std::string record(8, '\0');
  record.push_back(static_cast<char>(JournalRecordKind::kEvict));
  append_le<std::uint64_t>(record, handle);
  const std::lock_guard<std::mutex> lock(mu_);
  append_record_locked(record);
  flight_record(FlightEventKind::kJournalAppend, RequestContext{}, "evict",
                handle);
}

void StoreJournal::truncate_to_header() {
  const std::lock_guard<std::mutex> lock(mu_);
  SYSRLE_REQUIRE(::ftruncate(fd_, static_cast<off_t>(kHeaderBytes)) == 0,
                 "StoreJournal: truncate failed for " + path_);
  SYSRLE_REQUIRE(::lseek(fd_, 0, SEEK_END) >= 0,
                 "StoreJournal: seek failed for " + path_);
  SYSRLE_REQUIRE(::fsync(fd_) == 0,
                 "StoreJournal: fsync failed for " + path_);
  file_bytes_ = kHeaderBytes;
  ++stats_.truncations;
}

JournalStats StoreJournal::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t StoreJournal::size_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return file_bytes_;
}

JournalLoadResult load_journal(const std::string& path) {
  JournalLoadResult result;
  const auto file = read_whole_file(path, "load_journal");
  if (!file) return result;  // missing file == empty journal
  result.file_present = true;
  const std::string& data = *file;

  if (!header_ok(data)) {
    result.header_ok = false;
    result.salvaged_tail_bytes = data.size();
    result.tail_reason = "bad_header";
    return result;
  }

  ByteReader in(byte_span(data));
  in.take(kHeaderBytes);  // checked by header_ok
  std::size_t pos = kHeaderBytes;  // end of the clean prefix
  const char* reason = nullptr;
  while (in.remaining() > 0) {
    JournalRecord record;
    reason = decode_record(in, record);
    if (reason) break;
    result.records.push_back(std::move(record));
    pos = in.offset();
  }
  if (reason) {
    result.salvaged_tail_bytes = data.size() - pos;
    result.tail_reason = reason;
  }
  result.clean_bytes = pos;
  return result;
}

}  // namespace sysrle
