#pragma once
// ResultCache: content-addressed cache of completed diff results.
//
// Once both operands of a diff live in the ImageStore, the result of
// diffing them is itself content-addressed: the key
// (fingerprint-a, fingerprint-b, engine, canonicalization) names exactly
// one output image, because every engine is bit-identical for a given
// input pair and option set.  The cache closes the loop the Coalescer
// opened: coalescing dedups *concurrent* identical diffs, the cache dedups
// *sequential* ones — the second identical by-handle request is answered
// from memory without invoking an engine at all.
//
// Collision defense (the Coalescer idiom): every hit is verified against
// the stored operands before it is served.  Entries keep shared_ptr
// references to the store's parsed images (via PinnedImage::share(), which
// keeps them alive past eviction without pinning them), so verification is
// usually a pointer-equality check and at worst a full image compare; a
// 64-bit key collision degrades to a miss, never to a wrong answer.
//
// Byte-budgeted LRU: entries are charged their diff's run storage plus the
// operand-reference overhead, and insertion evicts from the LRU tail.  The
// identity lookups == hits + misses always holds (collisions are counted
// inside misses); serve.v4 accounting and bench_store assert it.
//
// Thread-safe: one mutex over the map + LRU list.  The router calls
// lookup() under its own lock on the submit path and insert() on the
// completion path; lock ordering is always router → cache, never reversed.
//
// Metrics: cache.lookups, cache.hits, cache.misses, cache.collisions,
// cache.insertions, cache.evictions, cache.resident / .resident_bytes.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/image_diff.hpp"
#include "rle/rle_image.hpp"

namespace sysrle {

/// Identity of a by-handle diff result.  Deliberately its own type (not
/// CoalesceKey) so the store layer does not depend on the service layer;
/// the fields and hashing match the coalescer's key exactly.
struct ResultKey {
  std::uint64_t fp_a = 0;
  std::uint64_t fp_b = 0;
  DiffEngine engine = ImageDiffOptions{}.engine;
  bool canonicalize = ImageDiffOptions{}.canonicalize_output;

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
  /// Byte budget over cached diffs (cost_of below); insert evicts past it.
  std::size_t capacity_bytes = std::size_t{16} << 20;
};

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< includes collisions
  std::uint64_t collisions = 0;  ///< key hit, operand verification failed
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t resident = 0;
  std::size_t resident_bytes = 0;

  /// Every lookup resolved to exactly one of hit or miss.
  bool accounted() const { return lookups == hits + misses; }
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result for `key`, or nullptr on miss.  `a`/`b` are
  /// the resolved operands; a key hit whose stored operands differ from
  /// them is a fingerprint collision — counted, reported as a miss.
  std::shared_ptr<const CachedDiff> lookup(const ResultKey& key,
                                           const RleImage& a,
                                           const RleImage& b);

  /// Inserts a completed result.  `a`/`b` are shared references to the
  /// operands (PinnedImage::share()) kept for collision verification.
  /// Re-inserting an existing key refreshes its recency only.
  void insert(const ResultKey& key, std::shared_ptr<const RleImage> a,
              std::shared_ptr<const RleImage> b, CachedDiff result);

  /// Byte charge of a cached diff (approximate heap footprint).
  static std::size_t cost_of(const RleImage& diff);

  CacheStats stats() const;
  std::size_t capacity_bytes() const { return config_.capacity_bytes; }

 private:
  struct Entry {
    std::shared_ptr<const RleImage> a;
    std::shared_ptr<const RleImage> b;
    std::shared_ptr<const CachedDiff> result;
    std::size_t bytes = 0;
    std::list<ResultKey>::iterator lru;
  };

  void evict_for_locked(std::size_t incoming);

  CacheConfig config_;
  mutable std::mutex mu_;
  std::unordered_map<ResultKey, Entry, ResultKeyHash> entries_;
  std::list<ResultKey> lru_;  ///< front = most recently used
  std::size_t resident_bytes_ = 0;
  CacheStats stats_;
};

}  // namespace sysrle
