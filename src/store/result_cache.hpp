#pragma once
// ResultCache: the single-flight memo table of diff results.
//
// The key (fingerprint-a, fingerprint-b, engine, canonicalization) names
// exactly one output image, because every engine is bit-identical for a
// given input pair and option set.  This table is the one place that
// decides "this diff is already being computed, or already computed":
//
//   pending   admit() of a key with no entry registers the caller's call id
//             as the owner of a pending entry, which dispatches the work.
//             A duplicate arriving meanwhile joins the owner (the router
//             fans the owner's response out to its waiters).  When the
//             owner's deadline expires, reassign() re-owns the entry in
//             place for the promoted waiter; a failure or shed release()s it;
//   resident  complete() turns a pending entry into an LRU-resident result
//             when it was admitted cache-eligible (both operands from the
//             store with a cache configured — the router's call); any other
//             completion erases it.  A later duplicate is a hit, answered
//             with no engine at all.
//
// Collision defense: every match is verified against the entry's operands
// before it is joined or served.  Entries keep the caller's operand shares
// (SharedImage::share(): a store image's share keeps it alive past eviction
// without blocking it), never copies, so verification is usually a pointer
// compare.  A 64-bit key collision (same key, different operands) runs
// unregistered; it never joins or receives another pair's diff.
//
// Byte-budgeted LRU over resident entries: each is charged its diff's run
// storage plus the operand-reference overhead, and completion evicts from
// the LRU tail.  Pending entries hold no result and are not charged.  Only
// cache-eligible admissions are counted, and the identity
// lookups == hits + misses always holds (joins, registrations and
// collisions are misses); serve.v4 accounting and bench_store assert it.
//
// Thread-safe: one mutex over the map + LRU list.  The router calls admit()
// under its own lock on the submit path and complete()/release()/reassign()
// on the completion path; lock ordering is always router → table.
//
// Counts live only in CacheStats (the serve JSON's cache{} block); the
// table writes nothing to the metrics registry.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/image_diff.hpp"
#include "rle/rle_image.hpp"

namespace sysrle {

/// Identity of one diff computation: same key + equal operands = same
/// output (the engines are bit-identical across thread counts, so `threads`
/// is deliberately not part of the key).
struct ResultKey {
  std::uint64_t fp_a = 0;
  std::uint64_t fp_b = 0;
  DiffEngine engine = ImageDiffOptions{}.engine;
  bool canonicalize = ImageDiffOptions{}.canonicalize_output;

  /// The key of a diff of operands fingerprinted `fp_a`, `fp_b` (their
  /// canonical_fingerprint, which is also their store handle).
  static ResultKey of(std::uint64_t fp_a, std::uint64_t fp_b,
                      const ImageDiffOptions& options) {
    return {fp_a, fp_b, options.engine, options.canonicalize_output};
  }

  friend bool operator==(const ResultKey&, const ResultKey&) = default;
};

struct ResultKeyHash {
  std::size_t operator()(const ResultKey& k) const {
    std::uint64_t h = k.fp_a * 0x9e3779b97f4a7c15ull;
    h ^= k.fp_b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= (static_cast<std::uint64_t>(k.engine) << 1) ^
         (k.canonicalize ? 0x2545f4914f6cdd1dull : 0);
    return static_cast<std::size_t>(h);
  }
};

/// One cached completion: the diff image plus the row counters the service
/// reported, so a cache hit reproduces the original response payload.
struct CachedDiff {
  RleImage diff{0, 0};
  std::uint64_t rows_processed = 0;
  std::uint64_t fallback_rows = 0;
};

struct CacheConfig {
  /// Byte budget over cached diffs (cost_of below); completion evicts past
  /// it.
  std::size_t capacity_bytes = std::size_t{16} << 20;
};

struct CacheStats {
  std::uint64_t lookups = 0;     ///< cache-eligible admissions
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< includes joins and collisions
  std::uint64_t collisions = 0;  ///< resident key hit, operands differ
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t resident = 0;
  std::size_t resident_bytes = 0;
  std::size_t pending = 0;  ///< admitted, not yet completed or released

  /// Every lookup resolved to exactly one of hit or miss.
  bool accounted() const { return lookups == hits + misses; }
};

class ResultCache {
 public:
  /// What admit() decided for one request.
  struct Admission {
    enum class Kind {
      kOwner,      ///< no entry: the caller owns a new pending entry
      kJoined,     ///< pending, same operands: wait on `owner`
      kHit,        ///< resident, same operands: `result` answers it
      kCollision,  ///< pending, different operands: run unregistered
      kBypass,     ///< resident but not servable to this caller (not
                   ///< cache-eligible, or operands differ): run unregistered
    };
    Kind kind = Kind::kOwner;
    std::uint64_t owner = 0;
    std::shared_ptr<const CachedDiff> result;
  };

  explicit ResultCache(CacheConfig config = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The one submit-path call.  `call_id` becomes the owner of a new
  /// pending entry, which keeps the shares `a` and `b` (never copies);
  /// `cacheable` admissions are counted (lookups, hits, misses), may be
  /// served a resident result, and their completion becomes resident.
  Admission admit(const ResultKey& key,
                  const std::shared_ptr<const RleImage>& a,
                  const std::shared_ptr<const RleImage>& b,
                  std::uint64_t call_id, bool cacheable);

  /// Hands the pending entry `owner` holds to `new_owner` (waiter promotion
  /// after the owner's deadline expired); later duplicates join it.
  void reassign(const ResultKey& key, std::uint64_t owner,
                std::uint64_t new_owner);

  /// The owner's computation completed with `diff`.  Returns the resident
  /// result when the entry was admitted cache-eligible; otherwise erases
  /// the entry and returns nullptr.
  std::shared_ptr<const CachedDiff> complete(const ResultKey& key,
                                             std::uint64_t owner,
                                             const RleImage& diff,
                                             std::uint64_t rows_processed,
                                             std::uint64_t fallback_rows);

  /// The owner failed or was shed: the key becomes admittable again.
  void release(const ResultKey& key, std::uint64_t owner);

  /// Byte charge of a cached diff (approximate heap footprint).
  static std::size_t cost_of(const RleImage& diff);

  CacheStats stats() const;
  std::size_t capacity_bytes() const { return config_.capacity_bytes; }

 private:
  struct Entry {
    std::shared_ptr<const RleImage> a;
    std::shared_ptr<const RleImage> b;
    std::uint64_t owner = 0;  ///< pending: the registered call id
    bool cacheable = false;   ///< pending: completion becomes resident
    std::shared_ptr<const CachedDiff> result;  ///< null while pending
    std::size_t bytes = 0;
    std::list<ResultKey>::iterator lru;
  };
  using Map = std::unordered_map<ResultKey, Entry, ResultKeyHash>;

  Map::iterator pending_locked(const ResultKey& key, std::uint64_t owner);
  void count_locked(bool hit, bool collision);
  void evict_for_locked(std::size_t incoming);

  CacheConfig config_;
  mutable std::mutex mu_;
  Map entries_;               ///< pending and resident entries
  std::list<ResultKey> lru_;  ///< resident only; front = most recently used
  std::size_t resident_bytes_ = 0;
  CacheStats stats_;
};

}  // namespace sysrle
