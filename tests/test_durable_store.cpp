// Tests for the durability layer: journal framing and torn-tail salvage,
// snapshot round-trips and per-entry CRC salvage, recovery through the
// hardened reader with canonical-fingerprint re-verification, a unit-size
// crash-point sweep (the full sweep lives in bench_durability), the
// single-byte-flip fuzz over both at-rest files, and concurrency hammers
// for TSan (CI runs this binary under ThreadSanitizer).

#include "store/durable_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "rle/serialize.hpp"
#include "store/store_journal.hpp"
#include "store/store_snapshot.hpp"
#include "workload/generator.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using testing::to_hex;

namespace fs = std::filesystem;

RleImage make_image(std::uint64_t seed, pos_t rows = 6, pos_t width = 128) {
  Rng rng(seed);
  RowGenParams p;
  p.width = width;
  p.density = 0.3;
  return generate_image(rng, rows, p);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// A fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("sysrle_durable_test_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this))))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

DurableStoreConfig plain_config(const std::string& dir) {
  DurableStoreConfig cfg;
  cfg.dir = dir;
  cfg.snapshot_on_recovery = false;
  return cfg;
}

TEST(StoreJournal, RoundTripRegisterAndEvict) {
  ScratchDir dir("journal_roundtrip");
  const std::string path = store_journal_path(dir.path);
  const RleImage img = make_image(1);
  const std::string bytes = canonical_rle_bytes(img);
  const ImageHandle h = canonical_fingerprint(img);
  {
    StoreJournal journal(path);
    journal.append_register(h, "one", bytes);
    journal.append_evict(h);
    const JournalStats s = journal.stats();
    EXPECT_EQ(s.appends, 2u);
    EXPECT_EQ(s.fsyncs, 2u);  // fsync_every defaults to 1
  }
  const JournalLoadResult load = load_journal(path);
  EXPECT_TRUE(load.file_present);
  EXPECT_TRUE(load.header_ok);
  EXPECT_EQ(load.salvaged_tail_bytes, 0u);
  EXPECT_TRUE(load.tail_reason.empty());
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].kind, JournalRecordKind::kRegister);
  EXPECT_EQ(load.records[0].handle, h);
  EXPECT_EQ(load.records[0].label, "one");
  EXPECT_EQ(load.records[0].bytes, bytes);
  EXPECT_EQ(load.records[1].kind, JournalRecordKind::kEvict);
  EXPECT_EQ(load.records[1].handle, h);
}

TEST(StoreJournal, MissingFileIsEmptyJournal) {
  ScratchDir dir("journal_missing");
  const JournalLoadResult load =
      load_journal(store_journal_path(dir.path));
  EXPECT_FALSE(load.file_present);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.salvaged_tail_bytes, 0u);
}

TEST(StoreJournal, ReopenAppendsAfterExistingRecords) {
  ScratchDir dir("journal_reopen");
  const std::string path = store_journal_path(dir.path);
  const RleImage a = make_image(1);
  const RleImage b = make_image(2);
  {
    StoreJournal journal(path);
    journal.append_register(canonical_fingerprint(a), "a",
                            canonical_rle_bytes(a));
  }
  {
    StoreJournal journal(path);
    journal.append_register(canonical_fingerprint(b), "b",
                            canonical_rle_bytes(b));
  }
  const JournalLoadResult load = load_journal(path);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].label, "a");
  EXPECT_EQ(load.records[1].label, "b");
}

TEST(StoreJournal, TornTailIsSalvagedToCleanPrefix) {
  ScratchDir dir("journal_torn");
  const std::string path = store_journal_path(dir.path);
  const RleImage img = make_image(3);
  {
    StoreJournal journal(path);
    journal.append_register(canonical_fingerprint(img), "whole",
                            canonical_rle_bytes(img));
    journal.append_evict(canonical_fingerprint(img));
  }
  const std::string full = read_file(path);
  const JournalLoadResult clean = load_journal(path);
  ASSERT_EQ(clean.records.size(), 2u);

  // Cut inside the second record: the first must survive, the torn tail is
  // reported, and the clean_bytes boundary is exactly the first record end.
  const std::uint64_t cut =
      clean.records[1].offset + clean.records[1].length / 2;
  write_file(path, full.substr(0, cut));
  const JournalLoadResult torn = load_journal(path);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.records[0].label, "whole");
  EXPECT_EQ(torn.clean_bytes, clean.records[1].offset);
  EXPECT_EQ(torn.salvaged_tail_bytes, cut - clean.records[1].offset);
  EXPECT_FALSE(torn.tail_reason.empty());
}

TEST(StoreJournal, CrcMismatchStopsReplayTyped) {
  ScratchDir dir("journal_crc");
  const std::string path = store_journal_path(dir.path);
  const RleImage img = make_image(4);
  {
    StoreJournal journal(path);
    journal.append_register(canonical_fingerprint(img), "x",
                            canonical_rle_bytes(img));
  }
  std::string data = read_file(path);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0xff);
  write_file(path, data);
  const JournalLoadResult load = load_journal(path);
  EXPECT_TRUE(load.header_ok);
  EXPECT_TRUE(load.records.empty());
  EXPECT_GT(load.salvaged_tail_bytes, 0u);
  EXPECT_EQ(load.tail_reason, "crc_mismatch");
}

TEST(StoreJournal, BadHeaderQuarantinesWholeFile) {
  ScratchDir dir("journal_header");
  const std::string path = store_journal_path(dir.path);
  write_file(path, "this is not a journal at all");
  const JournalLoadResult load = load_journal(path);
  EXPECT_TRUE(load.file_present);
  EXPECT_FALSE(load.header_ok);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.tail_reason, "bad_header");

  // The append side refuses to extend a non-journal file.
  EXPECT_THROW(StoreJournal journal(path), contract_error);
}

TEST(StoreJournal, TruncateToHeaderEmptiesTheLog) {
  ScratchDir dir("journal_truncate");
  const std::string path = store_journal_path(dir.path);
  const RleImage img = make_image(5);
  StoreJournal journal(path);
  journal.append_register(canonical_fingerprint(img), "gone",
                          canonical_rle_bytes(img));
  journal.truncate_to_header();
  journal.append_evict(canonical_fingerprint(img));
  EXPECT_EQ(journal.stats().truncations, 1u);
  const JournalLoadResult load = load_journal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].kind, JournalRecordKind::kEvict);
}

TEST(StoreSnapshot, RoundTrip) {
  ScratchDir dir("snapshot_roundtrip");
  const std::string path = store_snapshot_path(dir.path);
  std::vector<SnapshotEntry> entries;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RleImage img = make_image(seed);
    entries.push_back({canonical_fingerprint(img),
                       "img" + std::to_string(seed),
                       canonical_rle_bytes(img)});
  }
  write_snapshot(path, entries);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // temp renamed away

  const SnapshotLoadResult load = load_snapshot(path);
  EXPECT_TRUE(load.file_present);
  EXPECT_TRUE(load.header_ok);
  EXPECT_EQ(load.declared_entries, 3u);
  EXPECT_EQ(load.salvaged_tail_bytes, 0u);
  ASSERT_EQ(load.entries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(load.entries[i].handle, entries[i].handle);
    EXPECT_EQ(load.entries[i].label, entries[i].label);
    EXPECT_EQ(load.entries[i].bytes, entries[i].bytes);
  }
}

TEST(StoreSnapshot, RewriteReplacesAtomically) {
  ScratchDir dir("snapshot_rewrite");
  const std::string path = store_snapshot_path(dir.path);
  const RleImage a = make_image(1);
  const RleImage b = make_image(2);
  write_snapshot(path, {{canonical_fingerprint(a), "a",
                         canonical_rle_bytes(a)}});
  write_snapshot(path, {{canonical_fingerprint(b), "b",
                         canonical_rle_bytes(b)}});
  const SnapshotLoadResult load = load_snapshot(path);
  ASSERT_EQ(load.entries.size(), 1u);
  EXPECT_EQ(load.entries[0].label, "b");
}

TEST(StoreSnapshot, CorruptEntrySalvagesPrefix) {
  ScratchDir dir("snapshot_corrupt");
  const std::string path = store_snapshot_path(dir.path);
  std::vector<SnapshotEntry> entries;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RleImage img = make_image(seed);
    entries.push_back({canonical_fingerprint(img), "", canonical_rle_bytes(img)});
  }
  write_snapshot(path, entries);
  std::string data = read_file(path);
  // Flip a byte near the end: the last entry's CRC breaks, the first two
  // load clean.
  data[data.size() - 4] = static_cast<char>(data[data.size() - 4] ^ 0x01);
  write_file(path, data);
  const SnapshotLoadResult load = load_snapshot(path);
  EXPECT_TRUE(load.header_ok);
  EXPECT_EQ(load.entries.size(), 2u);
  EXPECT_GT(load.salvaged_tail_bytes, 0u);
  EXPECT_EQ(load.tail_reason, "crc_mismatch");
}

TEST(StoreSnapshot, MissingFileIsEmptySnapshot) {
  ScratchDir dir("snapshot_missing");
  const SnapshotLoadResult load =
      load_snapshot(store_snapshot_path(dir.path));
  EXPECT_FALSE(load.file_present);
  EXPECT_TRUE(load.entries.empty());
}

TEST(DurableStore, RecoversRegistersLabelsAndEvicts) {
  ScratchDir dir("recover_basic");
  const RleImage kept = make_image(1);
  const RleImage gone = make_image(2);
  {
    DurableStore ds(plain_config(dir.path));
    ASSERT_TRUE(ds.register_image(kept, "kept").ok);
    const auto rg = ds.register_image(gone, "gone");
    ASSERT_TRUE(rg.ok);
    ASSERT_TRUE(ds.evict(rg.handle));
  }
  DurableStore ds(plain_config(dir.path));
  const RecoveryReport& rec = ds.recovery();
  EXPECT_EQ(rec.replayed_registers, 2u);
  EXPECT_EQ(rec.replayed_evicts, 1u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(ds.store().stats().resident, 1u);
  EXPECT_TRUE(ds.store().stats().accounted());

  const auto labels = ds.labels();
  ASSERT_TRUE(labels.count("kept"));
  const PinnedImage pin = ds.store().acquire(labels.at("kept"));
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin.image(), kept);
  EXPECT_EQ(canonical_fingerprint(pin.image()), labels.at("kept"));
}

TEST(DurableStore, BudgetEvictionsAreJournaledAndRecovered) {
  ScratchDir dir("recover_budget_evict");
  DurableStoreConfig cfg = plain_config(dir.path);
  // Capacity for roughly two of these images: the third register evicts the
  // LRU head, and that eviction must be journaled through on_evict.
  const std::size_t one = canonical_rle_bytes(make_image(1)).size();
  cfg.store.capacity_bytes = one * 2 + one / 2;
  std::vector<ImageHandle> handles;
  {
    DurableStore ds(cfg);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto r =
          ds.register_image(make_image(seed), "s" + std::to_string(seed));
      ASSERT_TRUE(r.ok);
      handles.push_back(r.handle);
    }
    EXPECT_GT(ds.store().stats().evicted, 0u);
  }
  DurableStore ds(cfg);
  EXPECT_FALSE(ds.store().contains(handles[0]));  // evicted, stayed evicted
  EXPECT_TRUE(ds.store().contains(handles[2]));
  EXPECT_TRUE(ds.store().stats().accounted());
}

TEST(DurableStore, SnapshotCompactsJournal) {
  ScratchDir dir("snapshot_compacts");
  DurableStoreConfig cfg = plain_config(dir.path);
  cfg.snapshot_every = 2;
  {
    DurableStore ds(cfg);
    ASSERT_TRUE(ds.register_image(make_image(1), "a").ok);
    ASSERT_TRUE(ds.register_image(make_image(2), "b").ok);  // triggers snapshot
    const DurabilityStats stats = ds.durability_stats();
    EXPECT_EQ(stats.snapshots, 1u);
    EXPECT_EQ(stats.last_snapshot_entries, 2u);
    EXPECT_EQ(stats.journal.truncations, 1u);
  }
  // Post-compaction layout: everything in the snapshot, journal bare.
  EXPECT_EQ(load_journal(store_journal_path(dir.path)).records.size(), 0u);
  EXPECT_EQ(load_snapshot(store_snapshot_path(dir.path)).entries.size(), 2u);

  DurableStore ds(cfg);
  EXPECT_EQ(ds.recovery().snapshot_entries, 2u);
  EXPECT_EQ(ds.store().stats().resident, 2u);
  EXPECT_EQ(ds.labels().size(), 2u);
}

// A snapshot takes its labels from the label map: a second label on the
// same image survives, and a label moved to another image stays moved even
// when its old image is the more recently used one.
TEST(DurableStore, SnapshotKeepsEveryLabel) {
  const RleImage x = make_image(1);
  const RleImage y = make_image(2);
  const ImageHandle hx = canonical_fingerprint(x);
  const ImageHandle hy = canonical_fingerprint(y);
  {
    ScratchDir dir("snapshot_two_labels");
    {
      DurableStore ds(plain_config(dir.path));
      ASSERT_TRUE(ds.register_image(x, "a").ok);
      ASSERT_TRUE(ds.register_image(x, "b").deduplicated);
      ds.snapshot_now();
    }
    ASSERT_TRUE(load_journal(store_journal_path(dir.path)).records.empty());
    DurableStore ds(plain_config(dir.path));
    const std::map<std::string, ImageHandle> want{{"a", hx}, {"b", hx}};
    EXPECT_EQ(ds.labels(), want);
    EXPECT_EQ(ds.store().stats().resident, 1u);
  }
  {
    ScratchDir dir("snapshot_moved_label");
    {
      DurableStore ds(plain_config(dir.path));
      ASSERT_TRUE(ds.register_image(x, "a").ok);
      ASSERT_TRUE(ds.register_image(y, "a").ok);
      ASSERT_TRUE(ds.store().acquire(hx));  // x becomes the LRU head
      ds.snapshot_now();
    }
    ASSERT_TRUE(load_journal(store_journal_path(dir.path)).records.empty());
    DurableStore ds(plain_config(dir.path));
    const std::map<std::string, ImageHandle> want{{"a", hy}};
    EXPECT_EQ(ds.labels(), want);
    EXPECT_TRUE(ds.store().contains(hx));  // still resident, unlabelled
  }
}

// The store holds parses only; a snapshot encodes them.  An image
// registered with split runs is written as its canonical bytes, and those
// bytes fingerprint back to the handle recovery will check them against.
TEST(DurableStore, SnapshotWritesCanonicalBytesOfSplitImage) {
  ScratchDir dir("snapshot_split");
  RleImage split(10, 2);
  split.set_row(0, RleRow({{0, 2}, {2, 3}}));
  split.set_row(1, RleRow({{4, 1}, {5, 2}}));
  DurableStore ds(plain_config(dir.path));
  const ImageStore::RegisterResult r = ds.register_image(split, "split");
  ASSERT_TRUE(r.ok);
  ds.snapshot_now();
  const SnapshotLoadResult snap = load_snapshot(store_snapshot_path(dir.path));
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].handle, r.handle);
  EXPECT_EQ(snap.entries[0].label, "split");
  EXPECT_EQ(snap.entries[0].bytes, canonical_rle_bytes(split));
  std::istringstream in(snap.entries[0].bytes);
  EXPECT_EQ(canonical_fingerprint(read_rle(in)), r.handle);
}

TEST(DurableStore, RecoveryCompactionLeavesCanonicalDir) {
  ScratchDir dir("recovery_compacts");
  {
    DurableStore ds(plain_config(dir.path));
    ASSERT_TRUE(ds.register_image(make_image(1), "a").ok);
  }
  DurableStoreConfig cfg;
  cfg.dir = dir.path;  // snapshot_on_recovery defaults to true
  DurableStore ds(cfg);
  EXPECT_EQ(ds.durability_stats().snapshots, 1u);
  EXPECT_EQ(load_journal(store_journal_path(dir.path)).records.size(), 0u);
  EXPECT_EQ(load_snapshot(store_snapshot_path(dir.path)).entries.size(), 1u);
}

TEST(DurableStore, FlippedBitBecomesTypedDropNeverServed) {
  ScratchDir dir("flip_typed_drop");
  const RleImage img = make_image(7);
  const ImageHandle h = canonical_fingerprint(img);
  { DurableStore ds(plain_config(dir.path));
    ASSERT_TRUE(ds.register_image(img, "poisoned").ok); }

  // Forge a journal whose record CRC is valid but whose image bytes no
  // longer fingerprint to the recorded handle — the CRC layer cannot catch
  // this; the end-to-end fingerprint check must.
  std::string bytes = canonical_rle_bytes(img);
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x04);
  const std::string path = store_journal_path(dir.path);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  { StoreJournal journal(path);
    journal.append_register(h, "poisoned", bytes); }

  DurableStore ds(plain_config(dir.path));
  const RecoveryReport& rec = ds.recovery();
  EXPECT_EQ(rec.journal_records, 1u);
  EXPECT_EQ(rec.replayed_registers, 0u);
  EXPECT_EQ(rec.dropped_malformed + rec.dropped_fingerprint, 1u);
  EXPECT_FALSE(ds.store().contains(h));  // never resident, never servable
  EXPECT_EQ(ds.labels().count("poisoned"), 0u);
}

TEST(DurableStore, CrashPointSweepPreservesPrefixProperty) {
  ScratchDir dir("crash_sweep");
  // Acknowledged op log: three registers, one explicit evict.
  std::vector<std::pair<bool, ImageHandle>> ops;
  {
    DurableStore ds(plain_config(dir.path));
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto r =
          ds.register_image(make_image(seed), "s" + std::to_string(seed));
      ASSERT_TRUE(r.ok);
      ops.emplace_back(true, r.handle);
    }
    ASSERT_TRUE(ds.evict(ops[0].second));
    ops.emplace_back(false, ops[0].second);
  }
  const std::string path = store_journal_path(dir.path);
  const std::string full = read_file(path);
  const JournalLoadResult clean = load_journal(path);
  ASSERT_EQ(clean.records.size(), ops.size());

  // Every boundary and every mid-record cut: recovery equals the state
  // after the longest complete prefix.
  std::vector<std::pair<std::uint64_t, std::size_t>> cuts;  // offset -> k
  cuts.emplace_back(clean.records.front().offset, 0);
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    const JournalRecord& r = clean.records[i];
    cuts.emplace_back(r.offset + 1, i);
    cuts.emplace_back(r.offset + r.length / 2, i);
    cuts.emplace_back(r.offset + r.length, i + 1);
  }
  for (const auto& [cut, k] : cuts) {
    ScratchDir scratch("crash_sweep_point");
    write_file(store_journal_path(scratch.path), full.substr(0, cut));
    DurableStore ds(plain_config(scratch.path));
    std::set<ImageHandle> expect;
    for (std::size_t i = 0; i < k; ++i) {
      if (ops[i].first)
        expect.insert(ops[i].second);
      else
        expect.erase(ops[i].second);
    }
    EXPECT_TRUE(ds.store().stats().accounted());
    EXPECT_EQ(ds.store().stats().resident, expect.size()) << "cut=" << cut;
    for (const ImageHandle h : expect) {
      const PinnedImage pin = ds.store().acquire(h);
      ASSERT_TRUE(pin) << "cut=" << cut;
      EXPECT_EQ(canonical_fingerprint(pin.image()), h);
    }
  }
}

TEST(DurableStore, SingleByteFlipFuzzJournalAndSnapshot) {
  ScratchDir dir("flip_fuzz");
  {
    DurableStoreConfig cfg = plain_config(dir.path);
    DurableStore ds(cfg);
    ASSERT_TRUE(ds.register_image(make_image(1), "a").ok);
    ds.snapshot_now();
    ASSERT_TRUE(ds.register_image(make_image(2), "b").ok);
  }
  const std::string journal = read_file(store_journal_path(dir.path));
  const std::string snapshot = read_file(store_snapshot_path(dir.path));
  ASSERT_FALSE(journal.empty());
  ASSERT_FALSE(snapshot.empty());

  // Every single-byte flip in either file: recovery never crashes, stays
  // accounted, resident is a subset of {a, b}, and any loss is typed —
  // salvaged tail bytes, a typed drop, or a quarantined header.
  const std::set<ImageHandle> truth = {
      canonical_fingerprint(make_image(1)), canonical_fingerprint(make_image(2))};
  for (int which = 0; which < 2; ++which) {
    const std::string& original = which == 0 ? journal : snapshot;
    for (std::size_t off = 0; off < original.size(); ++off) {
      ScratchDir scratch("flip_fuzz_point");
      std::string flipped = original;
      flipped[off] = static_cast<char>(flipped[off] ^ 0x10);
      write_file(store_journal_path(scratch.path),
                 which == 0 ? flipped : journal);
      write_file(store_snapshot_path(scratch.path),
                 which == 0 ? snapshot : flipped);
      DurableStore ds(plain_config(scratch.path));
      EXPECT_TRUE(ds.store().stats().accounted());
      std::size_t resident_seen = 0;
      for (const ImageHandle h : truth) {
        const PinnedImage pin = ds.store().acquire(h);
        if (!pin) continue;
        ++resident_seen;
        EXPECT_EQ(canonical_fingerprint(pin.image()), h)
            << "file=" << which << " off=" << off;
      }
      EXPECT_EQ(ds.store().stats().resident, resident_seen)
          << "file=" << which << " off=" << off;
      const RecoveryReport& rec = ds.recovery();
      if (resident_seen != truth.size()) {
        EXPECT_TRUE(rec.salvaged_bytes() > 0 || rec.dropped() > 0 ||
                    !rec.snapshot_header_ok || !rec.journal_header_ok)
            << "untyped loss at file=" << which << " off=" << off;
      }
    }
  }
}

TEST(DurableStore, FsckCleanAndCorrupt) {
  ScratchDir dir("fsck");
  {
    DurableStore ds(plain_config(dir.path));
    ASSERT_TRUE(ds.register_image(make_image(1), "a").ok);
    ds.snapshot_now();
    ASSERT_TRUE(ds.register_image(make_image(2), "b").ok);
  }
  FsckReport clean = fsck_store_dir(dir.path);
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.verified_images, 2u);
  EXPECT_EQ(clean.snapshot_entries, 1u);
  EXPECT_EQ(clean.journal_registers, 1u);

  std::string snap = read_file(store_snapshot_path(dir.path));
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0x40);
  write_file(store_snapshot_path(dir.path), snap);
  FsckReport dirty = fsck_store_dir(dir.path);
  EXPECT_FALSE(dirty.clean());
  EXPECT_GT(dirty.snapshot_salvaged_bytes, 0u);
}

// Pins the SRLJ and SRLS layouts byte for byte, CRCs included: a journal
// holding one register and one evict record, then a one-entry snapshot.
// Every field is little-endian.
TEST(DurableStore, GoldenJournalAndSnapshotBytes) {
  ScratchDir dir("golden");
  RleImage img(8, 1);
  img.set_row(0, RleRow({{2, 3}}));
  const std::string srlb =
      "53524c42" "0100000000000000" "0800000000000000" "0100000000000000"
      "0100000000000000" "0200000000000000" "0300000000000000";
  ASSERT_EQ(to_hex(canonical_rle_bytes(img)), srlb);
  const ImageHandle handle = canonical_fingerprint(img);
  ASSERT_EQ(handle, 0x48ab08834a9ffb0aull);
  const std::string handle_le = "0afb9f4a8308ab48";
  const std::string journal_path = store_journal_path(dir.path);
  const std::string snapshot_path = store_snapshot_path(dir.path);
  {
    DurableStore ds(plain_config(dir.path));
    ASSERT_TRUE(ds.register_image(img, "g").ok);
    ASSERT_TRUE(ds.evict(handle));
    ds.sync();
    EXPECT_EQ(to_hex(read_file(journal_path)),
              "53524c4a" "01000000"  // magic, u32 version
              // register: u32 len 74, u32 crc, kind 1, handle, u32 label
              // length 1, "g", u64 data length 52, SRLB bytes
              "4a000000" "84a960e8" "01" + handle_le + "01000000" "67"
              "3400000000000000" + srlb +
              // evict: u32 len 9, u32 crc, kind 2, handle
              "09000000" "9416d66b" "02" + handle_le);
    ASSERT_TRUE(ds.register_image(img, "g").ok);
    ds.snapshot_now();
  }
  // magic, u32 version, u64 entry count 1; entry: handle, u32 label length
  // 1, "g", u64 data length 52, u32 crc, SRLB bytes.
  EXPECT_EQ(to_hex(read_file(snapshot_path)),
            "53524c53" "01000000" "0100000000000000" + handle_le +
                "01000000" "67" "3400000000000000" "1ad3e465" + srlb);
  EXPECT_EQ(to_hex(read_file(journal_path)), "53524c4a01000000");
}

TEST(StoreJournal, ConcurrentAppendHammer) {
  ScratchDir dir("journal_hammer");
  StoreJournal journal(store_journal_path(dir.path), /*fsync_every=*/8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      const RleImage img = make_image(100 + static_cast<std::uint64_t>(t));
      const std::string bytes = canonical_rle_bytes(img);
      const ImageHandle h = canonical_fingerprint(img);
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 4 == 3)
          journal.append_evict(h);
        else
          journal.append_register(h, "t" + std::to_string(t), bytes);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  journal.sync();
  EXPECT_EQ(journal.stats().appends,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const JournalLoadResult load = load_journal(store_journal_path(dir.path));
  EXPECT_EQ(load.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(load.salvaged_tail_bytes, 0u);
}

TEST(DurableStore, ConcurrentRegisterEvictSnapshotHammer) {
  ScratchDir dir("durable_hammer");
  DurableStoreConfig cfg = plain_config(dir.path);
  DurableStore ds(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ds, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t seed =
            1000 + static_cast<std::uint64_t>(t) * kPerThread +
            static_cast<std::uint64_t>(i);
        const auto r = ds.register_image(make_image(seed), "");
        ASSERT_TRUE(r.ok);
        if (i % 3 == 2) ds.evict(r.handle);
        if (i % 5 == 4) ds.snapshot_now();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ds.snapshot_now();
  EXPECT_TRUE(ds.store().stats().accounted());
  const std::uint64_t resident = ds.store().stats().resident;

  // The compacted directory recovers to exactly the live resident set.
  DurableStore recovered(plain_config(dir.path));
  EXPECT_EQ(recovered.store().stats().resident, resident);
  EXPECT_TRUE(recovered.store().stats().accounted());
}

}  // namespace
}  // namespace sysrle
