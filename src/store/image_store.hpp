#pragma once
// ImageStore: a long-lived, content-addressed store of RLE images.
//
// The serving path used to re-parse every operand on every request; for the
// golden-panel workload (one hot reference image diffed by every scan) the
// parse dominated small-diff service time.  The store registers an image
// once under a content-addressed handle — the FNV-1a fingerprint of its
// canonical serialized bytes (rle/serialize.hpp) — and hot requests then
// submit by handle: the router resolves the handle to a pinned, already-
// parsed image, so the reference is parsed zero times per request and the
// handle doubles as a stable shard-routing key.
//
// The canonical parse (every row with adjacent runs merged) is the only
// form an entry is held in: the store never keeps SRLB bytes.  Dedup and
// the collision check compare parses; persistence (durable_store.hpp)
// serializes them when it writes the journal or a snapshot.
//
// Safety contracts:
//   collision  a register whose fingerprint is already taken by a
//              *different* image (full-content compare) is refused
//              (RegisterResult::collision) — the result table's idiom: a
//              64-bit collision degrades to "this image cannot be stored",
//              never to two images silently sharing a handle;
//   pinning    acquire() returns a SharedImage holding a pin; a pinned
//              entry is never evicted, so an image cannot vanish mid-diff.
//              Pins released after eviction-time store destruction remain
//              safe (the entry is shared-ptr-owned past the store);
//   budget     byte-budgeted LRU eviction, each entry charged its
//              canonical SRLB size (canonical_rle_size); the
//              identity registered == resident + evicted always holds
//              (bench_store asserts it), and pinned entries may push the
//              store transiently over budget (evict_blocked_by_pin counts
//              every such skip).
//
// Thread-safe: all entry points lock; pin release is a lock-free atomic
// decrement so dropping a SharedImage never contends with the serving path.
//
// Counts live only in StoreStats (the serve JSON's store{} block); the
// store writes nothing to the metrics registry.  Evictions record a
// FlightRecorder store_evict event.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "rle/rle_image.hpp"

namespace sysrle {

/// Content-addressed image handle: the canonical-bytes fingerprint.  Equal
/// handles name equal pixels (the store refuses colliding registrations).
/// 0 is reserved for "no handle" in the service request vocabulary.
using ImageHandle = std::uint64_t;

struct StoreConfig {
  /// Byte budget over resident canonical sizes; registration evicts the LRU
  /// tail past it.  Pinned entries are skipped, so the budget can be
  /// overshot while pins hold.
  std::size_t capacity_bytes = std::size_t{64} << 20;
  /// Test seam: replaces canonical_fingerprint so fingerprint collisions
  /// (unconstructable for the real 64-bit hash) are testable.
  std::function<std::uint64_t(const RleImage&)> fingerprint_override;
  /// Durability seam: invoked (with the store lock held) for every eviction,
  /// budget-driven or explicit.  The callback must not re-enter the store.
  std::function<void(ImageHandle)> on_evict;
};

/// One coherent snapshot of the store counters.
struct StoreStats {
  std::uint64_t registered = 0;  ///< accepted registrations (dedup excluded)
  std::uint64_t dedup_hits = 0;  ///< re-registrations of a resident image
  std::uint64_t collisions = 0;  ///< refused: fingerprint taken by other pixels
  std::uint64_t evicted = 0;
  std::uint64_t evict_blocked_by_pin = 0;
  std::uint64_t acquires = 0;
  std::uint64_t lookup_misses = 0;  ///< acquire() of unknown/evicted handles
  std::size_t resident = 0;
  std::size_t resident_bytes = 0;  ///< canonical sizes of resident entries
  std::size_t pinned = 0;          ///< resident entries with a live pin

  /// Every accepted registration is still resident or was evicted.
  bool accounted() const { return registered == resident + evicted; }
};

class ImageStore;

/// One immutable image, shared rather than copied: the serving path's one
/// operand type.  A store image (ImageStore::acquire) carries its handle as
/// its canonical fingerprint, and a pin: while any copy lives the entry
/// cannot be evicted, and the last copy releases the pin (safe past the
/// store's destruction).  A by-value image has no pin.  Empty reads as 0x0.
class SharedImage {
 public:
  SharedImage() = default;
  /// By value: moves `image` into a new share.
  SharedImage(RleImage image);
  /// An existing share, tagged with its canonical fingerprint.
  SharedImage(std::shared_ptr<const RleImage> image,
              std::uint64_t fingerprint = 0);

  explicit operator bool() const { return image_ != nullptr; }
  const RleImage& image() const { return *share(); }
  std::uint64_t fingerprint() const { return fingerprint_; }
  bool pinned() const { return pin_ != nullptr; }

  /// The image as a share, never null.  A share keeps the image alive past
  /// eviction without blocking it; equal shares mean one image (the result
  /// cache's collision fast path).
  const std::shared_ptr<const RleImage>& share() const;

 private:
  friend class ImageStore;
  std::shared_ptr<const RleImage> image_;  ///< null: the 0x0 image
  std::shared_ptr<void> pin_;              ///< shared pin token; null: none
  std::uint64_t fingerprint_ = 0;
};

/// The store.  See the header comment for the contracts.
class ImageStore {
 public:
  struct RegisterResult {
    bool ok = false;
    ImageHandle handle = 0;
    bool deduplicated = false;  ///< the image was already resident
    bool collision = false;     ///< refused: handle taken by other pixels
  };

  explicit ImageStore(StoreConfig config = {});

  ImageStore(const ImageStore&) = delete;
  ImageStore& operator=(const ImageStore&) = delete;

  /// Registers the canonical parse of `image` under its content handle.
  /// Re-registering resident content dedups to the existing handle.
  RegisterResult register_image(const RleImage& image);

  /// Pins and returns the image, or an empty SharedImage when the handle is
  /// unknown (never registered, refused, or evicted).
  SharedImage acquire(ImageHandle handle);

  bool contains(ImageHandle handle) const;

  /// Explicitly evicts one entry (journal replay / administrative drop).
  /// Returns false when the handle is unknown or the entry is pinned; a
  /// successful evict counts toward `evicted` exactly like a budget evict.
  bool evict(ImageHandle handle);

  /// Shares every resident entry's parse (unpinned, fingerprint = handle),
  /// least recently used first, so replaying the list in order reproduces
  /// today's LRU order.  Takes references only; callers serialize after the
  /// store lock is released.
  std::vector<SharedImage> resident_entries() const;

  StoreStats stats() const;
  std::size_t capacity_bytes() const { return config_.capacity_bytes; }

 private:
  struct Entry {
    RleImage image{0, 0};   ///< canonical parse
    std::size_t bytes = 0;  ///< budget charge: canonical_rle_size(image)
    std::atomic<std::uint64_t> pins{0};
    std::list<ImageHandle>::iterator lru;
  };

  /// Evicts LRU-tail unpinned entries until `incoming` more bytes fit (or
  /// nothing evictable remains).  Lock held.
  void evict_for_locked(std::size_t incoming);

  StoreConfig config_;
  mutable std::mutex mu_;
  std::unordered_map<ImageHandle, std::shared_ptr<Entry>> entries_;
  std::list<ImageHandle> lru_;  ///< front = most recently used
  std::size_t resident_bytes_ = 0;
  StoreStats stats_;  ///< counters; stats() fills the resident figures
};

}  // namespace sysrle
