#include "store/durable_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "rle/serialize.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

std::string store_journal_path(const std::string& dir) {
  return dir + "/store.journal";
}

std::string store_snapshot_path(const std::string& dir) {
  return dir + "/store.snapshot";
}

namespace {

/// What checking one stored image record found.
enum class RecordCheck { kVerified, kMalformed, kFingerprintMismatch };

/// Decodes a record's canonical SRLB bytes through the hardened reader into
/// `image` and checks they hash to the handle they were filed under — the
/// end-to-end content-address check shared by recovery and fsck.  A set
/// `fingerprint_override` (the store's test seam) replaces
/// canonical_fingerprint.
RecordCheck check_record(
    ImageHandle handle, const std::string& bytes,
    const std::function<std::uint64_t(const RleImage&)>& fingerprint_override,
    RleImage& image) {
  try {
    image = read_rle(byte_span(bytes));
  } catch (const contract_error&) {
    return RecordCheck::kMalformed;
  }
  const std::uint64_t fingerprint = fingerprint_override
                                        ? fingerprint_override(image)
                                        : canonical_fingerprint(image);
  return fingerprint == handle ? RecordCheck::kVerified
                               : RecordCheck::kFingerprintMismatch;
}

/// Clips a journal file to its clean prefix so the append side can reopen
/// it.  A file whose header is bad is removed outright (it was never a
/// journal this version can extend).
void clip_journal_file(const std::string& path, const JournalLoadResult& load) {
  if (!load.file_present) return;
  if (!load.header_ok) {
    SYSRLE_REQUIRE(std::remove(path.c_str()) == 0,
                   "recovery: cannot remove unreadable journal " + path);
    return;
  }
  if (load.salvaged_tail_bytes == 0) return;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  SYSRLE_REQUIRE(fd >= 0, "recovery: cannot open journal for salvage: " +
                              path + ": " + std::strerror(errno));
  const int trc = ::ftruncate(fd, static_cast<off_t>(load.clean_bytes));
  const int frc = trc == 0 ? ::fsync(fd) : -1;
  ::close(fd);
  SYSRLE_REQUIRE(trc == 0 && frc == 0,
                 "recovery: journal salvage truncate failed for " + path);
}

}  // namespace

DurableStore::DurableStore(DurableStoreConfig cfg) : cfg_(std::move(cfg)) {
  SYSRLE_REQUIRE(!cfg_.dir.empty(), "DurableStore: dir must be set");

  // The store journals every eviction.  journal_ is still null while
  // recovery replays — replayed evictions are already on disk.
  StoreConfig store_cfg = cfg_.store;
  auto chained = store_cfg.on_evict;
  store_cfg.on_evict = [this, chained](ImageHandle handle) {
    if (journal_) journal_->append_evict(handle);
    if (chained) chained(handle);
  };
  store_ = std::make_shared<ImageStore>(store_cfg);

  const std::string snap_path = store_snapshot_path(cfg_.dir);
  const std::string jour_path = store_journal_path(cfg_.dir);
  SnapshotLoadResult snap = load_snapshot(snap_path);
  JournalLoadResult jour = load_journal(jour_path);

  recovery_.snapshot_present = snap.file_present;
  recovery_.snapshot_header_ok = snap.header_ok;
  recovery_.snapshot_entries = snap.entries.size();
  recovery_.snapshot_salvaged_bytes = snap.salvaged_tail_bytes;
  recovery_.snapshot_tail_reason = snap.tail_reason;
  recovery_.journal_present = jour.file_present;
  recovery_.journal_header_ok = jour.header_ok;
  recovery_.journal_records = jour.records.size();
  recovery_.journal_salvaged_bytes = jour.salvaged_tail_bytes;
  recovery_.journal_tail_reason = jour.tail_reason;

  for (const SnapshotEntry& entry : snap.entries)
    replay_register(entry.handle, entry.label, entry.bytes);
  for (const JournalRecord& record : jour.records) {
    if (record.kind == JournalRecordKind::kRegister) {
      replay_register(record.handle, record.label, record.bytes);
    } else {
      if (store_->evict(record.handle))
        ++recovery_.replayed_evicts;
      else
        ++recovery_.evicts_unmatched;
    }
  }

  // From here on the journal is live: clip the tail we refused to replay,
  // then reopen for appending.
  clip_journal_file(jour_path, jour);
  journal_ = std::make_unique<StoreJournal>(jour_path, cfg_.journal_fsync_every);

  const bool had_state = snap.file_present || !jour.records.empty() ||
                         recovery_.salvaged_bytes() > 0;
  if (cfg_.snapshot_on_recovery && had_state) {
    const std::lock_guard<std::mutex> lock(op_mu_);
    snapshot_locked();
  }

  if (telemetry_enabled()) {
    MetricsRegistry& m = global_metrics();
    m.add("store.recovery.replayed",
          recovery_.replayed_registers + recovery_.replayed_evicts);
    if (recovery_.dropped() > 0)
      m.add("store.recovery.dropped", recovery_.dropped());
    if (recovery_.salvaged_bytes() > 0)
      m.add("store.recovery.salvaged_bytes", recovery_.salvaged_bytes());
  }
}

void DurableStore::replay_register(ImageHandle handle, const std::string& label,
                                   const std::string& bytes) {
  RleImage image(0, 0);
  const RecordCheck check =
      check_record(handle, bytes, cfg_.store.fingerprint_override, image);
  if (check != RecordCheck::kVerified) {
    const bool malformed = check == RecordCheck::kMalformed;
    ++(malformed ? recovery_.dropped_malformed : recovery_.dropped_fingerprint);
    flight_record(FlightEventKind::kRecoveryDrop, RequestContext{},
                  malformed ? "malformed" : "fingerprint_mismatch", handle);
    return;
  }
  const ImageStore::RegisterResult result = store_->register_image(image);
  if (result.ok) {
    ++recovery_.replayed_registers;
    if (!label.empty()) labels_[label] = result.handle;
  } else {
    ++recovery_.dropped_collision;
    flight_record(FlightEventKind::kRecoveryDrop, RequestContext{}, "collision",
                  handle);
  }
}

ImageStore::RegisterResult DurableStore::register_image(
    const RleImage& image, const std::string& label) {
  const std::lock_guard<std::mutex> lock(op_mu_);
  const ImageStore::RegisterResult result = store_->register_image(image);
  if (!result.ok) return result;
  journal_->append_register(result.handle, label, canonical_rle_bytes(image));
  if (!label.empty()) labels_[label] = result.handle;
  ++records_since_snapshot_;
  if (cfg_.snapshot_every > 0 &&
      records_since_snapshot_ >= cfg_.snapshot_every)
    snapshot_locked();
  return result;
}

bool DurableStore::evict(ImageHandle handle) {
  const std::lock_guard<std::mutex> lock(op_mu_);
  // The store's on_evict hook journals the record.
  const bool ok = store_->evict(handle);
  if (ok) {
    ++records_since_snapshot_;
    if (cfg_.snapshot_every > 0 &&
        records_since_snapshot_ >= cfg_.snapshot_every)
      snapshot_locked();
  }
  return ok;
}

void DurableStore::sync() { journal_->sync(); }

void DurableStore::snapshot_now() {
  const std::lock_guard<std::mutex> lock(op_mu_);
  snapshot_locked();
}

void DurableStore::snapshot_locked() {
  std::multimap<ImageHandle, std::string> names;
  for (const auto& [label, handle] : labels_) names.emplace(handle, label);
  // resident_entries() only shares the parses; encoding happens here, with
  // the store lock already released.
  std::vector<SnapshotEntry> entries;
  for (const ImageStore::ResidentEntry& re : store_->resident_entries()) {
    const std::string bytes = canonical_rle_bytes(*re.image);
    const auto [first, last] = names.equal_range(re.handle);
    if (first == last) entries.push_back({re.handle, "", bytes});
    for (auto it = first; it != last; ++it)
      entries.push_back({re.handle, it->second, bytes});
  }
  write_snapshot(store_snapshot_path(cfg_.dir), entries);
  // Only now — with the snapshot durably renamed in place — may the journal
  // forget the records it covers.
  journal_->truncate_to_header();
  records_since_snapshot_ = 0;
  ++snapshots_;
  last_snapshot_entries_ = entries.size();
  if (telemetry_enabled()) global_metrics().add("store.snapshot.writes");
  flight_record(FlightEventKind::kSnapshot, RequestContext{}, "",
                entries.size());
}

std::map<std::string, ImageHandle> DurableStore::labels() const {
  const std::lock_guard<std::mutex> lock(op_mu_);
  return labels_;
}

DurabilityStats DurableStore::durability_stats() const {
  const std::lock_guard<std::mutex> lock(op_mu_);
  DurabilityStats stats;
  stats.journal = journal_->stats();
  stats.journal_size_bytes = journal_->size_bytes();
  stats.snapshots = snapshots_;
  stats.last_snapshot_entries = last_snapshot_entries_;
  stats.recovery = recovery_;
  return stats;
}

FsckReport fsck_store_dir(const std::string& dir) {
  FsckReport report;
  const auto verify = [&report](ImageHandle handle, const std::string& bytes) {
    RleImage image(0, 0);
    const RecordCheck check = check_record(handle, bytes, nullptr, image);
    ++(check == RecordCheck::kVerified    ? report.verified_images
       : check == RecordCheck::kMalformed ? report.malformed_images
                                          : report.fingerprint_mismatches);
  };

  const SnapshotLoadResult snap = load_snapshot(store_snapshot_path(dir));
  report.snapshot_present = snap.file_present;
  report.snapshot_header_ok = snap.header_ok;
  report.snapshot_entries = snap.entries.size();
  report.snapshot_salvaged_bytes = snap.salvaged_tail_bytes;
  report.snapshot_tail_reason = snap.tail_reason;
  for (const SnapshotEntry& entry : snap.entries)
    verify(entry.handle, entry.bytes);

  const JournalLoadResult jour = load_journal(store_journal_path(dir));
  report.journal_present = jour.file_present;
  report.journal_header_ok = jour.header_ok;
  report.journal_salvaged_bytes = jour.salvaged_tail_bytes;
  report.journal_tail_reason = jour.tail_reason;
  for (const JournalRecord& record : jour.records) {
    if (record.kind == JournalRecordKind::kRegister) {
      ++report.journal_registers;
      verify(record.handle, record.bytes);
    } else {
      ++report.journal_evicts;
    }
  }
  return report;
}

}  // namespace sysrle
