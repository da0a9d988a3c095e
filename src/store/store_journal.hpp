#pragma once
// StoreJournal: the write-ahead journal behind the durable image store.
//
// One append-only file of length-prefixed, CRC-checksummed records.  Layout:
//
//   header   "SRLJ" + u32 version (little-endian)
//   record   u32 payload_len | u32 crc32(payload_len_le ++ payload) | payload
//   payload  u8 kind (1 = register, 2 = evict) + u64 handle
//            register adds: u32 label_len + label + u64 data_len + canonical
//            SRLB bytes (rle/serialize.hpp)
//
// The CRC covers the length prefix as well as the payload, so a flipped
// byte anywhere in a record — including the framing — is detected (CRC-32
// catches every burst error of 32 bits or fewer; a single corrupted byte
// is an 8-bit burst).  Appends are a single write(2) each and are made
// durable in batches: every `fsync_every` appends, and on demand via
// sync().  A record counts as *acknowledged* only once a sync covering it
// has returned — the recovery prefix property is stated over acknowledged
// records.
//
// Torn-tail salvage (load_journal): records are replayed up to the first
// bad one — short length word, length past EOF, oversize length, CRC
// mismatch, or unknown kind — and everything from that point on is
// reported as salvageable tail bytes.  A crash mid-write therefore loses
// at most the unacknowledged suffix, never a prefix record.  A missing
// file is an empty journal; a bad header quarantines the whole file (the
// loader reports it, recovery counts it, nothing is replayed).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/image_store.hpp"

namespace sysrle {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over the concatenation
/// `head ++ body`, computed incrementally without joining them.
std::uint32_t crc32_bytes(std::string_view head, std::string_view body);

enum class JournalRecordKind : std::uint8_t {
  kRegister = 1,
  kEvict = 2,
};

/// One decoded journal record.  `offset`/`length` locate the encoded record
/// in the file (offset of the length prefix), so crash-injection harnesses
/// can truncate or corrupt at exact record boundaries.
struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kRegister;
  ImageHandle handle = 0;
  std::string label;  ///< register only: the caller-visible image name
  std::string bytes;  ///< register only: canonical SRLB bytes
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t appended_bytes = 0;  ///< record bytes, header excluded
  std::uint64_t fsyncs = 0;
  std::uint64_t truncations = 0;
};

/// Append side.  Thread-safe; every entry point locks.  Construction opens
/// (creating when absent) the file, validates or writes the header, and
/// positions at the end.  Throws contract_error on I/O failure or on a file
/// whose header is not a journal header — callers salvage first (see
/// load_journal) and construct the writer on a clean file.
class StoreJournal {
 public:
  static constexpr std::uint32_t kVersion = 1;
  /// Framing cap: a length prefix past this is structural corruption, not a
  /// record (keeps salvage from attempting multi-GB allocations).
  static constexpr std::uint32_t kMaxPayload = 1u << 28;

  explicit StoreJournal(std::string path, std::size_t fsync_every = 1);
  ~StoreJournal();

  StoreJournal(const StoreJournal&) = delete;
  StoreJournal& operator=(const StoreJournal&) = delete;

  void append_register(ImageHandle handle, const std::string& label,
                       const std::string& bytes);
  void append_evict(ImageHandle handle);

  /// Forces everything appended so far to disk (fsync).  No-op when nothing
  /// is pending.
  void sync();

  /// Empties the journal back to a bare header + fsync.  Called only after
  /// a snapshot covering its records is durable.
  void truncate_to_header();

  JournalStats stats() const;
  std::uint64_t size_bytes() const;  ///< current file size, header included
  const std::string& path() const { return path_; }

 private:
  /// Fills the 8 frame bytes at the front of `record` (length and CRC of
  /// the payload after them), then writes it.
  void append_record_locked(std::string& record);
  void sync_locked();

  std::string path_;
  std::size_t fsync_every_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t pending_ = 0;  ///< appends not yet covered by an fsync
  JournalStats stats_;
};

/// Read side, torn-tail salvage included.  Never throws on file *content*;
/// only an unreadable file (open/read errors on an existing path) throws.
struct JournalLoadResult {
  std::vector<JournalRecord> records;  ///< the clean prefix, in append order
  bool file_present = false;
  bool header_ok = true;          ///< false: not a journal — nothing replayed
  std::uint64_t clean_bytes = 0;  ///< header + clean records
  std::uint64_t salvaged_tail_bytes = 0;  ///< bytes past the clean prefix
  std::string tail_reason;  ///< empty when the file parsed to the last byte
};

JournalLoadResult load_journal(const std::string& path);

}  // namespace sysrle
