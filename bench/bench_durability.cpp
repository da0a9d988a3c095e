// Durability extension: does the durable image store's crash story hold at
// every possible kill point, and what does the write-ahead journal cost?
//
// The claim under test is the *prefix property*: however the writer dies —
// at a record boundary, mid-record, or with arbitrary at-rest corruption —
// recovery yields exactly the store state after some prefix of the
// acknowledged operation sequence, with the accounting identities intact
// and zero recovered handles whose bytes do not fingerprint to them.  The
// harness is deterministic: instead of racing a real SIGKILL against the
// page cache, it replays the same acknowledged op log against byte-exact
// crash images (truncations of the journal at every boundary and at
// injected mid-record offsets, plus single-byte corruptions) and recovers
// each one into a scratch directory.
//
//   1. Boundary sweep — a journal of N acknowledged register/evict records
//      is cut at every record boundary; recovery from the cut-at-k image
//      must equal the model state after exactly k ops.
//   2. Mid-record sweep — the same journal is cut inside every record
//      (first byte, midpoint, last byte); the torn record was never
//      acknowledged as readable, so recovery must equal the state after
//      every *complete* record before the cut — still a prefix.
//   3. Corruption sweep — every single byte of the journal is flipped, one
//      at a time.  The record CRC (which covers the length prefix) turns
//      each flip into a torn tail: recovery must match the model prefix the
//      salvage rules imply, and must never crash or serve a wrong image.
//   4. Snapshot + journal — ops, an explicit compaction, more ops; the
//      post-snapshot journal gets the same boundary sweep (prefix now means
//      snapshot state plus a journal prefix), and every byte of the
//      snapshot file is flipped: a corrupt entry becomes a typed
//      recovery_dropped, the resident set stays a subset of the true state,
//      and every surviving handle still fingerprints clean.
//
// Flags: --json FILE writes a sysrle.bench.v1 report; --smoke shrinks the
// workload for CI.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rle/serialize.hpp"
#include "store/durable_store.hpp"
#include "telemetry/bench_report.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace fs = std::filesystem;
using namespace sysrle;

namespace {

RleImage make_image(std::uint64_t seed, pos_t rows, pos_t width) {
  Rng rng(seed);
  RowGenParams p;
  p.width = width;
  p.density = 0.30;
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

/// One acknowledged op: its journal append (write + fsync) returned before
/// the next op was issued, so every op in the log is acknowledged.
struct Op {
  bool is_register = true;
  ImageHandle handle = 0;
};

/// The model: resident handles after the first `k` acknowledged ops.
std::set<ImageHandle> expected_after(const std::vector<Op>& ops,
                                     std::size_t k) {
  std::set<ImageHandle> resident;
  for (std::size_t i = 0; i < k; ++i) {
    if (ops[i].is_register)
      resident.insert(ops[i].handle);
    else
      resident.erase(ops[i].handle);
  }
  return resident;
}

DurableStoreConfig recover_config(const std::string& dir) {
  DurableStoreConfig cfg;
  cfg.dir = dir;
  cfg.snapshot_on_recovery = false;  // the sweep reads, it does not compact
  return cfg;
}

/// Recovers `dir` and checks it against `expected`: same resident set, the
/// accounting identity, and — the never-serve-a-wrong-image half — every
/// resident handle's parsed bytes re-fingerprint to the handle.
bool recovered_matches(const std::string& dir,
                       const std::set<ImageHandle>& expected,
                       std::uint64_t* fingerprint_mismatches) {
  DurableStore ds(recover_config(dir));
  const StoreStats ss = ds.store().stats();
  if (!ss.accounted()) return false;
  if (ss.resident != expected.size()) return false;
  for (const ImageHandle h : expected) {
    SharedImage pin = ds.store().acquire(h);
    if (!pin) return false;
    if (canonical_fingerprint(pin.image()) != h) {
      ++*fingerprint_mismatches;
      return false;
    }
  }
  return true;
}

/// Scratch directory holding one crash image of `journal_bytes` (and, when
/// non-empty, a snapshot) to recover from.
void stage_crash_image(const std::string& dir, const std::string& journal_bytes,
                       const std::string& snapshot_bytes) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_file(store_journal_path(dir), journal_bytes);
  if (!snapshot_bytes.empty())
    write_file(store_snapshot_path(dir), snapshot_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_durability [--json FILE] [--smoke]\n";
      return 2;
    }
  }

  const pos_t kRows = smoke ? 4 : 8;
  const pos_t kWidth = smoke ? 64 : 256;
  const int kRegisters = smoke ? 8 : 24;
  const int kEvictEvery = 4;  // every 4th op is an explicit evict

  const std::string base = (fs::temp_directory_path() /
                            ("sysrle_bench_durability_" +
                             std::to_string(::getpid())))
                               .string();
  const std::string dir_a = base + "/journal_only";
  const std::string dir_b = base + "/snapshotted";
  const std::string scratch = base + "/scratch";
  fs::remove_all(base);
  fs::create_directories(dir_a);
  fs::create_directories(dir_b);

  BenchReport report("bench_durability");
  report.set_param("rows", static_cast<std::int64_t>(kRows));
  report.set_param("width", static_cast<std::int64_t>(kWidth));
  report.set_param("registers", static_cast<std::int64_t>(kRegisters));
  report.set_param("smoke", smoke ? "true" : "false");

  // --- build the acknowledged op log (journal only, no compaction) --------
  std::vector<Op> ops;
  const auto t0 = std::chrono::steady_clock::now();
  {
    DurableStoreConfig cfg;
    cfg.dir = dir_a;
    cfg.snapshot_every = 0;
    DurableStore ds(cfg);
    std::uint64_t seed = 1;
    std::vector<ImageHandle> live;
    for (int i = 0; i < kRegisters; ++i) {
      const RleImage img = make_image(seed++, kRows, kWidth);
      const auto rr = ds.register_image(img, "img" + std::to_string(i));
      if (!rr.ok) return 3;  // 64-bit collision: not reachable in practice
      ops.push_back({true, rr.handle});
      live.push_back(rr.handle);
      if ((i + 1) % kEvictEvery == 0 && !live.empty()) {
        const ImageHandle victim = live.front();
        live.erase(live.begin());
        if (!ds.evict(victim)) return 3;
        ops.push_back({false, victim});
      }
    }
  }
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::string journal_a = read_file(store_journal_path(dir_a));
  const JournalLoadResult full = load_journal(store_journal_path(dir_a));
  const bool log_complete = full.records.size() == ops.size() &&
                            full.salvaged_tail_bytes == 0;
  report.set_check("journal_log_complete", log_complete);
  report.set_scalar("acknowledged_ops", static_cast<double>(ops.size()));
  report.set_scalar("journal_bytes", static_cast<double>(journal_a.size()));
  report.set_scalar("journal_appends_per_sec",
                    build_s > 0 ? static_cast<double>(ops.size()) / build_s
                                : 0.0);

  std::uint64_t fingerprint_mismatches = 0;
  std::uint64_t crash_points = 0;
  std::uint64_t recoveries = 0;

  // --- 1. every record boundary -------------------------------------------
  bool boundaries_ok = log_complete;
  {
    std::vector<std::uint64_t> cuts;
    cuts.push_back(full.records.empty() ? journal_a.size()
                                        : full.records.front().offset);
    for (const JournalRecord& r : full.records)
      cuts.push_back(r.offset + r.length);
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      stage_crash_image(scratch, journal_a.substr(0, cuts[k]), "");
      ++crash_points;
      ++recoveries;
      if (!recovered_matches(scratch, expected_after(ops, k),
                             &fingerprint_mismatches))
        boundaries_ok = false;
    }
  }
  report.set_check("prefix_property_boundaries", boundaries_ok);

  // --- 2. mid-record cuts --------------------------------------------------
  bool midrecord_ok = log_complete;
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    const JournalRecord& r = full.records[i];
    // A cut inside record i leaves records 0..i-1 readable: the torn record
    // must vanish, not half-apply.
    for (const std::uint64_t delta :
         {std::uint64_t{1}, r.length / 2, r.length - 1}) {
      stage_crash_image(scratch, journal_a.substr(0, r.offset + delta), "");
      ++crash_points;
      ++recoveries;
      if (!recovered_matches(scratch, expected_after(ops, i),
                             &fingerprint_mismatches))
        midrecord_ok = false;
    }
  }
  report.set_check("prefix_property_midrecord", midrecord_ok);

  // --- 3. every single-byte corruption ------------------------------------
  // A flip anywhere in the file must reduce to some salvage prefix: the
  // loader's record count k after the flip decides which prefix, and the
  // recovered store must equal the model after k ops.  (A flip inside
  // record i always truncates the clean prefix at i — the CRC covers the
  // framing — so k is also the index of the flipped record.)
  bool flips_ok = log_complete;
  for (std::size_t off = 0; off < journal_a.size(); ++off) {
    std::string flipped = journal_a;
    flipped[off] = static_cast<char>(flipped[off] ^ 0x20);
    stage_crash_image(scratch, flipped, "");
    ++crash_points;
    ++recoveries;
    const JournalLoadResult salvage = load_journal(store_journal_path(scratch));
    const std::size_t k = salvage.records.size();
    if (k > ops.size()) {
      flips_ok = false;
      continue;
    }
    if (!recovered_matches(scratch, expected_after(ops, k),
                           &fingerprint_mismatches))
      flips_ok = false;
  }
  report.set_check("corruption_sweep_journal", flips_ok);

  // --- 4. snapshot + post-snapshot journal ---------------------------------
  std::vector<Op> pre_ops;
  std::vector<Op> post_ops;
  {
    DurableStoreConfig cfg;
    cfg.dir = dir_b;
    cfg.snapshot_every = 0;
    DurableStore ds(cfg);
    std::uint64_t seed = 1000;
    const int kPre = smoke ? 4 : 8;
    const int kPost = smoke ? 4 : 8;
    for (int i = 0; i < kPre; ++i) {
      const RleImage img = make_image(seed++, kRows, kWidth);
      const auto rr = ds.register_image(img, "pre" + std::to_string(i));
      if (!rr.ok) return 3;
      pre_ops.push_back({true, rr.handle});
    }
    ds.snapshot_now();
    for (int i = 0; i < kPost; ++i) {
      const RleImage img = make_image(seed++, kRows, kWidth);
      const auto rr = ds.register_image(img, "post" + std::to_string(i));
      if (!rr.ok) return 3;
      post_ops.push_back({true, rr.handle});
    }
    // One explicit evict of a *snapshotted* image: replay must apply a
    // journal evict against a snapshot-recovered entry.
    if (!ds.evict(pre_ops.front().handle)) return 3;
    post_ops.push_back({false, pre_ops.front().handle});
  }
  const std::string journal_b = read_file(store_journal_path(dir_b));
  const std::string snapshot_b = read_file(store_snapshot_path(dir_b));
  const JournalLoadResult full_b = load_journal(store_journal_path(dir_b));
  const std::set<ImageHandle> snap_state =
      expected_after(pre_ops, pre_ops.size());

  bool snapshot_boundaries_ok =
      full_b.records.size() == post_ops.size() && !snapshot_b.empty();
  {
    std::vector<std::uint64_t> cuts;
    cuts.push_back(full_b.records.empty() ? journal_b.size()
                                          : full_b.records.front().offset);
    for (const JournalRecord& r : full_b.records)
      cuts.push_back(r.offset + r.length);
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      stage_crash_image(scratch, journal_b.substr(0, cuts[k]), snapshot_b);
      ++crash_points;
      ++recoveries;
      // Prefix now means: the snapshotted state plus the first k journaled
      // post-snapshot ops.
      std::vector<Op> combined = pre_ops;
      combined.insert(combined.end(), post_ops.begin(),
                      post_ops.begin() + static_cast<std::ptrdiff_t>(k));
      if (!recovered_matches(scratch, expected_after(combined, combined.size()),
                             &fingerprint_mismatches))
        snapshot_boundaries_ok = false;
    }
  }
  report.set_check("prefix_property_snapshot_plus_journal",
                   snapshot_boundaries_ok);

  // Snapshot corruption: a flipped byte may only shrink the recovered set
  // (typed drops), never crash and never serve a mismatched fingerprint.
  bool snapshot_flips_ok = !snapshot_b.empty();
  const std::set<ImageHandle> final_state = [&] {
    std::vector<Op> combined = pre_ops;
    combined.insert(combined.end(), post_ops.begin(), post_ops.end());
    return expected_after(combined, combined.size());
  }();
  for (std::size_t off = 0; off < snapshot_b.size(); ++off) {
    std::string flipped = snapshot_b;
    flipped[off] = static_cast<char>(flipped[off] ^ 0x20);
    stage_crash_image(scratch, journal_b, flipped);
    ++crash_points;
    ++recoveries;
    DurableStore ds(recover_config(scratch));
    const StoreStats ss = ds.store().stats();
    if (!ss.accounted()) snapshot_flips_ok = false;
    std::size_t resident_seen = 0;
    for (const ImageHandle h : final_state) {
      SharedImage pin = ds.store().acquire(h);
      if (!pin) continue;
      ++resident_seen;
      if (canonical_fingerprint(pin.image()) != h) {
        ++fingerprint_mismatches;
        snapshot_flips_ok = false;
      }
    }
    // Nothing outside the true state may appear, and drops must be typed.
    if (ss.resident != resident_seen) snapshot_flips_ok = false;
    const RecoveryReport& rec = ds.recovery();
    if (rec.snapshot_header_ok && rec.snapshot_salvaged_bytes == 0 &&
        rec.dropped() == 0 && resident_seen != final_state.size())
      snapshot_flips_ok = false;
  }
  report.set_check("corruption_sweep_snapshot", snapshot_flips_ok);
  report.set_check("zero_fingerprint_mismatches", fingerprint_mismatches == 0);
  report.set_scalar("crash_points", static_cast<double>(crash_points));
  report.set_scalar("recoveries", static_cast<double>(recoveries));
  report.set_scalar("fingerprint_mismatches",
                    static_cast<double>(fingerprint_mismatches));

  std::cout << "acknowledged ops: " << ops.size() << " (journal "
            << journal_a.size() << " bytes)\n"
            << "crash points tested: " << crash_points << " (recoveries "
            << recoveries << ")\n"
            << "prefix property: boundaries="
            << (boundaries_ok ? "ok" : "FAIL")
            << " midrecord=" << (midrecord_ok ? "ok" : "FAIL")
            << " snapshot+journal="
            << (snapshot_boundaries_ok ? "ok" : "FAIL") << '\n'
            << "corruption sweeps: journal=" << (flips_ok ? "ok" : "FAIL")
            << " snapshot=" << (snapshot_flips_ok ? "ok" : "FAIL") << '\n'
            << "fingerprint mismatches served: " << fingerprint_mismatches
            << '\n';

  fs::remove_all(base);
  if (!json_path.empty()) report.write_file(json_path);
  return report.all_checks_pass() ? 0 : 1;
}
