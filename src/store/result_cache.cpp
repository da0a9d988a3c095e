#include "store/result_cache.hpp"

#include <utility>

#include "common/assert.hpp"

namespace sysrle {

ResultCache::ResultCache(CacheConfig config) : config_(config) {
  SYSRLE_REQUIRE(config_.capacity_bytes > 0,
                 "ResultCache: capacity must be positive");
}

std::size_t ResultCache::cost_of(const RleImage& diff) {
  // Run storage plus per-row vector overhead plus a fixed per-entry charge
  // for the map/list/operand-reference bookkeeping.  Approximate is fine —
  // the budget bounds memory order-of-magnitude, not byte-exactly.
  std::size_t bytes = 128;
  for (const RleRow& row : diff.rows())
    bytes += sizeof(RleRow) + row.run_count() * sizeof(Run);
  return bytes;
}

void ResultCache::evict_for_locked(std::size_t incoming) {
  while (resident_bytes_ + incoming > config_.capacity_bytes &&
         !lru_.empty()) {
    const ResultKey victim = lru_.back();
    auto found = entries_.find(victim);
    SYSRLE_REQUIRE(found != entries_.end(), "ResultCache: LRU/map desync");
    resident_bytes_ -= found->second.bytes;
    lru_.pop_back();
    entries_.erase(found);
    ++stats_.evictions;
  }
}

void ResultCache::count_locked(bool hit, bool collision) {
  ++stats_.lookups;
  ++(hit ? stats_.hits : stats_.misses);
  if (collision) ++stats_.collisions;
}

ResultCache::Map::iterator ResultCache::pending_locked(const ResultKey& key,
                                                       std::uint64_t owner) {
  auto found = entries_.find(key);
  SYSRLE_REQUIRE(found != entries_.end() && !found->second.result &&
                     found->second.owner == owner,
                 "ResultCache: key is not pending under this owner");
  return found;
}

ResultCache::Admission ResultCache::admit(
    const ResultKey& key, const std::shared_ptr<const RleImage>& a,
    const std::shared_ptr<const RleImage>& b, std::uint64_t call_id,
    bool cacheable) {
  using Kind = Admission::Kind;
  const std::lock_guard<std::mutex> lock(mu_);
  auto found = entries_.find(key);
  if (found == entries_.end()) {
    Entry entry;
    entry.a = a;
    entry.b = b;
    entry.owner = call_id;
    entry.cacheable = cacheable;
    entries_.emplace(key, std::move(entry));
    if (cacheable) count_locked(/*hit=*/false, /*collision=*/false);
    return {Kind::kOwner, call_id, nullptr};
  }

  Entry& entry = found->second;
  const bool resident = entry.result != nullptr;
  if (resident && !cacheable) return {Kind::kBypass, 0, nullptr};
  // Collision defense: the key only *names* the operands; verify them.
  // Shares of one image (store entries, a by-value image re-submitted)
  // short-circuit the full compare.
  const bool same = (entry.a == a || *entry.a == *a) &&
                    (entry.b == b || *entry.b == *b);
  if (cacheable) count_locked(resident && same, resident && !same);
  if (!same) return {resident ? Kind::kBypass : Kind::kCollision, 0, nullptr};
  if (!resident) return {Kind::kJoined, entry.owner, nullptr};
  lru_.splice(lru_.begin(), lru_, entry.lru);
  return {Kind::kHit, 0, entry.result};
}

void ResultCache::reassign(const ResultKey& key, std::uint64_t owner,
                           std::uint64_t new_owner) {
  const std::lock_guard<std::mutex> lock(mu_);
  pending_locked(key, owner)->second.owner = new_owner;
}

void ResultCache::release(const ResultKey& key, std::uint64_t owner) {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(pending_locked(key, owner));
}

std::shared_ptr<const CachedDiff> ResultCache::complete(
    const ResultKey& key, std::uint64_t owner, const RleImage& diff,
    std::uint64_t rows_processed, std::uint64_t fallback_rows) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto found = pending_locked(key, owner);
  if (!found->second.cacheable) {
    entries_.erase(found);
    return nullptr;
  }
  // Eviction only erases resident entries, never this pending one, so the
  // iterator stays valid.
  Entry& entry = found->second;
  entry.bytes = cost_of(diff);
  evict_for_locked(entry.bytes);
  entry.result = std::make_shared<const CachedDiff>(
      CachedDiff{diff, rows_processed, fallback_rows});
  lru_.push_front(key);
  entry.lru = lru_.begin();
  resident_bytes_ += entry.bytes;
  ++stats_.insertions;
  return entry.result;
}

CacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.resident = lru_.size();
  s.resident_bytes = resident_bytes_;
  s.pending = entries_.size() - lru_.size();
  return s;
}

}  // namespace sysrle
