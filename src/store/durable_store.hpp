#pragma once
// DurableStore: crash-safe persistence around ImageStore.
//
// The in-memory store (image_store.hpp) is rebuilt from a directory of two
// files — a snapshot (store_snapshot.hpp) and a write-ahead journal
// (store_journal.hpp):
//
//   register  journaled (label + canonical bytes) after the in-memory
//             registration succeeds; acknowledged once the record's
//             append (write + fsync) returns.
//   evict     journaled from inside the store's eviction path (budget or
//             explicit), so replay reproduces the same resident set.
//   snapshot  every `snapshot_every` journal records (and at the end of
//             every recovery) the resident set is compacted into a fresh
//             snapshot — write-temp, fsync, atomic rename, directory fsync —
//             and only then is the journal truncated back to its header.
//             The store hands over shared references to its canonical
//             parses; they are serialized here, after the store lock is
//             released, so a snapshot never blocks acquire() on encoding.
//             Labels come from labels(): an image under several labels is
//             written once per label (recovery dedups the repeats), and an
//             image no label names any more is written unlabelled.
//
// This is the only store module that writes SRLB bytes; the in-memory
// store holds parses only.
//
// Recovery (the constructor) replays snapshot entries then journal records
// through the hardened SRLB reader and re-verifies every image's canonical
// fingerprint against its recorded handle.  Content addressing makes this
// end-to-end: a flipped bit in any at-rest byte either breaks a CRC (the
// record is salvaged away) or breaks the fingerprint match (the entry
// becomes a typed `recovery_dropped`) — a recovered handle can never serve
// bytes that do not fingerprint to it.  The prefix property follows from
// the salvage rules: the recovered store always equals the state after
// some prefix of the acknowledged record sequence.
//
// Thread-safe; mutations (register/evict/snapshot) serialize on one mutex
// so a snapshot can never truncate a journal record it did not capture.
// Lock order: DurableStore::op_mu_ -> ImageStore::mu_ -> StoreJournal::mu_.
//
// Counts live only in RecoveryReport, DurabilityStats and JournalStats (the
// serve JSON's durability{} block).  Flight events: journal_append,
// snapshot, recovery_drop (docs/OBSERVABILITY.md).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "store/image_store.hpp"
#include "store/store_journal.hpp"
#include "store/store_snapshot.hpp"

namespace sysrle {

/// On-disk layout inside a store directory.
std::string store_journal_path(const std::string& dir);
std::string store_snapshot_path(const std::string& dir);

struct DurableStoreConfig {
  std::string dir;    ///< required: the store directory (must exist)
  StoreConfig store;  ///< in-memory store config (capacity, seams)
  /// Journal records between automatic snapshot compactions; 0 disables
  /// automatic snapshots (explicit snapshot_now() still works).
  std::uint64_t snapshot_every = 0;
  /// Compact once at the end of recovery when any prior state was found,
  /// leaving the directory canonical (fresh snapshot, empty journal).
  bool snapshot_on_recovery = true;
};

/// What the constructor's recovery pass found and did.
struct RecoveryReport {
  bool snapshot_present = false;
  bool snapshot_header_ok = true;
  std::uint64_t snapshot_entries = 0;  ///< clean entries loaded
  std::uint64_t snapshot_salvaged_bytes = 0;
  std::string snapshot_tail_reason;
  bool journal_present = false;
  bool journal_header_ok = true;
  std::uint64_t journal_records = 0;  ///< clean records loaded
  std::uint64_t journal_salvaged_bytes = 0;
  std::string journal_tail_reason;
  std::uint64_t replayed_registers = 0;  ///< accepted (dedup included)
  std::uint64_t replayed_evicts = 0;
  std::uint64_t dropped_malformed = 0;    ///< SRLB reader refused the bytes
  std::uint64_t dropped_fingerprint = 0;  ///< bytes do not hash to the handle
  std::uint64_t dropped_collision = 0;    ///< store refused (handle taken)
  std::uint64_t evicts_unmatched = 0;  ///< evict of a non-resident handle

  std::uint64_t dropped() const {
    return dropped_malformed + dropped_fingerprint + dropped_collision;
  }
  std::uint64_t salvaged_bytes() const {
    return snapshot_salvaged_bytes + journal_salvaged_bytes;
  }
};

/// One coherent snapshot of the durability counters, for the serve JSON
/// `durability{}` block.
struct DurabilityStats {
  JournalStats journal;
  std::uint64_t journal_size_bytes = 0;
  std::uint64_t snapshots = 0;  ///< snapshots written by this process
  std::uint64_t last_snapshot_entries = 0;
  RecoveryReport recovery;  ///< fixed at construction
};

class DurableStore {
 public:
  /// Recovers from cfg.dir (which must be an existing, writable directory)
  /// and opens the journal for appending.  Throws contract_error on I/O
  /// failure; at-rest *content* corruption never throws — it is salvaged or
  /// dropped and reported.
  explicit DurableStore(DurableStoreConfig cfg);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Registers and journals under `label`.  On ok (fresh or dedup) the
  /// record is appended and durable (fsynced) before this returns.  Collisions are refused and not journaled.
  ImageStore::RegisterResult register_image(const RleImage& image,
                                            const std::string& label);

  /// Explicit, journaled eviction.
  bool evict(ImageHandle handle);

  /// Compacts now: snapshot the resident set, then truncate the journal.
  void snapshot_now();

  ImageStore& store() { return *store_; }
  const std::shared_ptr<ImageStore>& store_ptr() const { return store_; }

  const RecoveryReport& recovery() const { return recovery_; }
  /// label -> handle for every label ever journaled (recovered + live).
  std::map<std::string, ImageHandle> labels() const;
  DurabilityStats durability_stats() const;
  const std::string& dir() const { return cfg_.dir; }

 private:
  void replay_register(ImageHandle handle, const std::string& label,
                       const std::string& bytes);
  void snapshot_locked();

  DurableStoreConfig cfg_;
  std::shared_ptr<ImageStore> store_;
  std::unique_ptr<StoreJournal> journal_;  ///< null only during replay
  RecoveryReport recovery_;
  mutable std::mutex op_mu_;
  std::map<std::string, ImageHandle> labels_;  ///< source of truth
  std::uint64_t records_since_snapshot_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t last_snapshot_entries_ = 0;
};

/// Read-only integrity check of a store directory: structure, record CRCs,
/// SRLB parse, and canonical-fingerprint match for every image, without
/// modifying a byte.  Backs `sysrle store fsck`.
struct FsckReport {
  bool snapshot_present = false;
  bool snapshot_header_ok = true;
  std::uint64_t snapshot_entries = 0;
  std::uint64_t snapshot_salvaged_bytes = 0;
  std::string snapshot_tail_reason;
  bool journal_present = false;
  bool journal_header_ok = true;
  std::uint64_t journal_registers = 0;
  std::uint64_t journal_evicts = 0;
  std::uint64_t journal_salvaged_bytes = 0;
  std::string journal_tail_reason;
  std::uint64_t verified_images = 0;  ///< parsed + fingerprint-matched
  std::uint64_t malformed_images = 0;
  std::uint64_t fingerprint_mismatches = 0;

  bool clean() const {
    return snapshot_header_ok && journal_header_ok &&
           snapshot_salvaged_bytes == 0 && journal_salvaged_bytes == 0 &&
           malformed_images == 0 && fingerprint_mismatches == 0;
  }
};

FsckReport fsck_store_dir(const std::string& dir);

}  // namespace sysrle
