#include "store/image_store.hpp"

#include <utility>

#include "common/assert.hpp"
#include "rle/serialize.hpp"
#include "telemetry/flight_recorder.hpp"

namespace sysrle {

SharedImage::SharedImage(RleImage image)
    : image_(std::make_shared<const RleImage>(std::move(image))) {}

SharedImage::SharedImage(std::shared_ptr<const RleImage> image,
                         std::uint64_t fingerprint)
    : image_(std::move(image)), fingerprint_(fingerprint) {}

const std::shared_ptr<const RleImage>& SharedImage::share() const {
  static const std::shared_ptr<const RleImage> kEmpty =
      std::make_shared<const RleImage>(0, 0);
  return image_ ? image_ : kEmpty;
}

ImageStore::ImageStore(StoreConfig config)
    : config_(std::move(config)) {
  SYSRLE_REQUIRE(config_.capacity_bytes > 0,
                 "ImageStore: capacity must be positive");
}

void ImageStore::evict_for_locked(std::size_t incoming) {
  // Walk from the LRU tail; pinned entries are skipped (and counted), so a
  // fully pinned store simply overshoots its budget rather than refusing
  // the registration or yanking an image out from under a diff.
  auto it = lru_.end();
  while (resident_bytes_ + incoming > config_.capacity_bytes &&
         it != lru_.begin()) {
    --it;
    auto found = entries_.find(*it);
    SYSRLE_REQUIRE(found != entries_.end(), "ImageStore: LRU/map desync");
    Entry& entry = *found->second;
    if (entry.pins.load(std::memory_order_acquire) > 0) {
      ++stats_.evict_blocked_by_pin;
      continue;
    }
    const ImageHandle fp = *it;
    resident_bytes_ -= entry.bytes;
    it = lru_.erase(it);  // next iteration re-decrements onto the new tail
    entries_.erase(found);
    ++stats_.evicted;
    flight_record(FlightEventKind::kStoreEvict, RequestContext{}, "", fp);
    if (config_.on_evict) config_.on_evict(fp);
  }
}

bool ImageStore::evict(ImageHandle handle) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto found = entries_.find(handle);
  if (found == entries_.end()) return false;
  Entry& entry = *found->second;
  if (entry.pins.load(std::memory_order_acquire) > 0) {
    ++stats_.evict_blocked_by_pin;
    return false;
  }
  resident_bytes_ -= entry.bytes;
  lru_.erase(entry.lru);
  entries_.erase(found);
  ++stats_.evicted;
  flight_record(FlightEventKind::kStoreEvict, RequestContext{}, "", handle);
  if (config_.on_evict) config_.on_evict(handle);
  return true;
}

std::vector<SharedImage> ImageStore::resident_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SharedImage> out;
  out.reserve(entries_.size());
  // lru_ front = most recent; walk from the back so the result replays
  // oldest-first.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    auto found = entries_.find(*it);
    SYSRLE_REQUIRE(found != entries_.end(), "ImageStore: LRU/map desync");
    const std::shared_ptr<Entry>& entry = found->second;
    out.emplace_back(std::shared_ptr<const RleImage>(entry, &entry->image),
                     *it);
  }
  return out;
}

ImageStore::RegisterResult ImageStore::register_image(const RleImage& image) {
  // Canonicalize outside the lock.  Two canonical parses are equal exactly
  // when their pixels are, so the parse is both the resident form (by-handle
  // diffs never pay a per-request canonicalization) and the collision check.
  std::vector<RleRow> rows;
  rows.reserve(image.rows().size());
  for (const RleRow& row : image.rows())
    rows.push_back(row.is_canonical() ? row : row.canonical());
  RleImage canonical(image.width(), std::move(rows));
  const std::uint64_t fp = config_.fingerprint_override
                               ? config_.fingerprint_override(canonical)
                               : canonical_fingerprint(canonical);
  const std::size_t bytes = canonical_rle_size(canonical);

  const std::lock_guard<std::mutex> lock(mu_);
  RegisterResult result;
  result.handle = fp;
  auto found = entries_.find(fp);
  if (found != entries_.end()) {
    Entry& entry = *found->second;
    if (entry.image == canonical) {
      // Already resident: dedup, and refresh its recency.
      lru_.splice(lru_.begin(), lru_, entry.lru);
      ++stats_.dedup_hits;
      result.ok = true;
      result.deduplicated = true;
      return result;
    }
    // Fingerprint taken by different pixels.  Refuse — the caller gets a
    // typed failure instead of two images silently sharing one handle.
    ++stats_.collisions;
    result.collision = true;
    return result;
  }

  evict_for_locked(bytes);
  auto entry = std::make_shared<Entry>();
  entry->image = std::move(canonical);
  entry->bytes = bytes;
  lru_.push_front(fp);
  entry->lru = lru_.begin();
  resident_bytes_ += entry->bytes;
  entries_.emplace(fp, std::move(entry));
  ++stats_.registered;
  result.ok = true;
  return result;
}

SharedImage ImageStore::acquire(ImageHandle handle) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto found = entries_.find(handle);
  if (found == entries_.end()) {
    ++stats_.lookup_misses;
    return SharedImage{};
  }
  std::shared_ptr<Entry> entry = found->second;
  lru_.splice(lru_.begin(), lru_, entry->lru);
  ++stats_.acquires;

  entry->pins.fetch_add(1, std::memory_order_acq_rel);
  // Aliasing pointer: shares the entry's lifetime but exposes the image, so
  // a cached share() outlives eviction without blocking it.
  SharedImage pinned(std::shared_ptr<const RleImage>(entry, &entry->image),
                     handle);
  // One pin token per acquire; copies of the SharedImage share it, and the
  // last copy's destructor releases the pin lock-free.
  pinned.pin_ = std::shared_ptr<void>(
      static_cast<void*>(entry.get()), [entry](void*) {
        entry->pins.fetch_sub(1, std::memory_order_acq_rel);
      });
  return pinned;
}

bool ImageStore::contains(ImageHandle handle) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(handle) != 0;
}

StoreStats ImageStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  StoreStats s = stats_;
  s.resident = entries_.size();
  s.resident_bytes = resident_bytes_;
  for (const auto& [fp, entry] : entries_)
    if (entry->pins.load(std::memory_order_acquire) > 0) ++s.pinned;
  return s;
}

}  // namespace sysrle
