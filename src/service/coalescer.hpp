#pragma once
// In-flight diff coalescing: two users diffing the same image pair get one
// computation.
//
// The golden-panel workload makes duplicates the common case, not a corner:
// every scan on an inspection line diffs against the same reference, and a
// re-review storm (operators re-opening the same defect) submits the exact
// same (reference, scan) pair many times in a burst.  The coalescer keys
// in-flight work by (image-a fingerprint, image-b fingerprint, engine
// options); a duplicate arriving while the first copy is still running
// attaches as a *waiter* on the primary instead of consuming a second
// engine slot.  When the primary completes, the router fans its response
// out to every waiter; when the primary fails, the failure propagates
// *typed* (waiters see the same kFailed / shard_down outcome, never a
// silent drop); when the primary's deadline expires while waiters with
// live deadlines remain, the router promotes a waiter to primary and
// re-dispatches (see ShardRouter).
//
// Fingerprints are 64-bit content hashes, so the coalescer verifies actual
// image equality on every match: a fingerprint collision degrades to "no
// coalescing" (both requests run), never to "wrong answer".
//
// Not thread-safe on its own — the ShardRouter serialises access under its
// routing lock; the standalone unit keeps the matching/collision logic
// independently testable.

#include <cstdint>
#include <unordered_map>

#include "core/image_diff.hpp"
#include "rle/rle_image.hpp"

namespace sysrle {

/// 64-bit FNV-1a content fingerprint of an RLE image (width, height, and
/// every run).  Equal images always hash equal; unequal images collide with
/// probability ~2^-64 — and a collision is caught by the equality check in
/// Coalescer::admit, never served.
std::uint64_t image_fingerprint(const RleImage& image);

/// Identity of one diff computation: same key + equal images = same output
/// (the engines are bit-identical across thread counts, so `threads` is
/// deliberately not part of the key).
struct CoalesceKey {
  std::uint64_t fp_a = 0;
  std::uint64_t fp_b = 0;
  DiffEngine engine = ImageDiffOptions{}.engine;
  bool canonicalize = ImageDiffOptions{}.canonicalize_output;

  friend bool operator==(const CoalesceKey&, const CoalesceKey&) = default;
};

/// Builds the key for a diff of `a` against `b` under `options`.
CoalesceKey coalesce_key(const RleImage& a, const RleImage& b,
                         const ImageDiffOptions& options);

struct CoalesceKeyHash {
  std::size_t operator()(const CoalesceKey& k) const {
    std::uint64_t h = k.fp_a * 0x9e3779b97f4a7c15ull;
    h ^= k.fp_b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= (static_cast<std::uint64_t>(k.engine) << 1) ^
         (k.canonicalize ? 0x2545f4914f6cdd1dull : 0);
    return static_cast<std::size_t>(h);
  }
};

/// Tracks which computations are in flight and who owns each.
class Coalescer {
 public:
  struct AdmitResult {
    /// True: the key was not in flight (or collided) — the caller owns the
    /// computation and must dispatch it.  False: attach as waiter on owner.
    bool primary = true;
    /// Valid when !primary: the call id registered by the current owner.
    std::uint64_t owner = 0;
    /// True when a fingerprint match was rejected by the image equality
    /// check (the caller dispatched a duplicate-keyed but distinct diff).
    bool collision = false;
  };

  /// Registers `call_id` as owner of `key`, or reports the existing owner.
  /// `a`/`b` defeat fingerprint collisions: a key match whose images differ
  /// returns primary=true, collision=true, and is NOT registered (the
  /// colliding computation runs uncoalesced and unregistered).
  AdmitResult admit(const CoalesceKey& key, const RleImage& a,
                    const RleImage& b, std::uint64_t call_id);

  /// Hands ownership of `key` to `call_id` (waiter promotion after the
  /// primary's deadline expired): later duplicates attach to the new owner.
  void reassign(const CoalesceKey& key, std::uint64_t call_id);

  /// Removes `key` from the in-flight set (the owner delivered or shed).
  void finish(const CoalesceKey& key);

  std::size_t inflight() const { return inflight_.size(); }
  std::uint64_t collisions() const { return collisions_; }

 private:
  struct Entry {
    std::uint64_t owner = 0;
    // Owned copies: the owner's request may be moved/destroyed while later
    // duplicates still need the equality check.
    RleImage a{0, 0};
    RleImage b{0, 0};
  };

  std::unordered_map<CoalesceKey, Entry, CoalesceKeyHash> inflight_;
  std::uint64_t collisions_ = 0;
};

}  // namespace sysrle
