// Tests for the persistent image store: content-addressed registration,
// dedup, fingerprint-collision refusal, byte-budgeted LRU eviction,
// pin-blocks-evict, accounting identities, and a concurrency hammer for
// TSan (CI runs this binary under ThreadSanitizer).

#include "store/image_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/image_diff.hpp"
#include "rle/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

RleImage make_image(std::uint64_t seed, pos_t rows = 8, pos_t width = 512) {
  Rng rng(seed);
  RowGenParams p;
  p.width = width;
  return generate_image(rng, rows, p);
}

TEST(ImageStore, RegisterAndAcquire) {
  ImageStore store;
  const RleImage img = make_image(1);
  const ImageStore::RegisterResult r = store.register_image(img);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.deduplicated);
  EXPECT_EQ(r.handle, canonical_fingerprint(img));
  EXPECT_TRUE(store.contains(r.handle));

  const SharedImage pin = store.acquire(r.handle);
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin.image(), img);
  EXPECT_EQ(pin.fingerprint(), r.handle);

  const StoreStats s = store.stats();
  EXPECT_EQ(s.registered, 1u);
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.pinned, 1u);
  EXPECT_TRUE(s.accounted());
}

TEST(ImageStore, AcquireUnknownHandleIsCountedMiss) {
  ImageStore store;
  EXPECT_FALSE(store.acquire(12345));
  EXPECT_FALSE(store.contains(12345));
  EXPECT_EQ(store.stats().lookup_misses, 1u);
}

TEST(ImageStore, ReRegisterDeduplicates) {
  ImageStore store;
  const RleImage img = make_image(2);
  const ImageStore::RegisterResult first = store.register_image(img);
  const ImageStore::RegisterResult second = store.register_image(img);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(second.handle, first.handle);
  const StoreStats s = store.stats();
  EXPECT_EQ(s.registered, 1u);
  EXPECT_EQ(s.dedup_hits, 1u);
  EXPECT_TRUE(s.accounted());
}

// The handle is an identity of *pixels*, not of in-memory representation:
// a non-canonical row layout dedups against the canonical registration.
TEST(ImageStore, RepresentationIndependentDedup) {
  ImageStore store;
  RleImage split(10, 1);
  split.set_row(0, RleRow({{0, 2}, {2, 3}}));
  RleImage merged(10, 1);
  merged.set_row(0, RleRow({{0, 5}}));
  const ImageStore::RegisterResult a = store.register_image(split);
  const ImageStore::RegisterResult b = store.register_image(merged);
  ASSERT_TRUE(a.ok);
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(a.handle, b.handle);
  // The resident parse is the canonical one.
  EXPECT_EQ(store.acquire(a.handle).image().row(0), RleRow({{0, 5}}));
}

// A 64-bit collision is unconstructable with the real hash, so the test
// seam pins every fingerprint to one value: the second, different image
// must be refused — never silently shared.
TEST(ImageStore, FingerprintCollisionRefused) {
  StoreConfig cfg;
  cfg.fingerprint_override = [](const RleImage&) { return 7u; };
  ImageStore store(cfg);
  ASSERT_TRUE(store.register_image(make_image(3)).ok);
  const ImageStore::RegisterResult clash = store.register_image(make_image(4));
  EXPECT_FALSE(clash.ok);
  EXPECT_TRUE(clash.collision);
  const StoreStats s = store.stats();
  EXPECT_EQ(s.collisions, 1u);
  EXPECT_EQ(s.registered, 1u);
  EXPECT_TRUE(s.accounted());
  // The incumbent is untouched.
  EXPECT_EQ(store.acquire(7).image(), make_image(3));

  // Equal canonical size, different pixels: the check compares content,
  // not length.
  ImageStore same_size(cfg);
  RleImage left(10, 1);
  left.set_row(0, RleRow({{0, 3}}));
  RleImage right(10, 1);
  right.set_row(0, RleRow({{5, 3}}));
  ASSERT_EQ(canonical_rle_size(left), canonical_rle_size(right));
  ASSERT_TRUE(same_size.register_image(left).ok);
  EXPECT_TRUE(same_size.register_image(right).collision);
  EXPECT_EQ(same_size.stats().collisions, 1u);
  EXPECT_EQ(same_size.acquire(7).image(), left);
}

TEST(ImageStore, EvictsLeastRecentlyUsedFirst) {
  const RleImage a = make_image(10);
  const RleImage b = make_image(11);
  const std::size_t each = canonical_rle_bytes(a).size();
  StoreConfig cfg;
  cfg.capacity_bytes = 2 * each + each / 2;  // room for two, not three
  ImageStore store(cfg);
  const ImageHandle ha = store.register_image(a).handle;
  const ImageHandle hb = store.register_image(b).handle;
  // Touch `a` so `b` is the LRU tail when the third image arrives.
  (void)store.acquire(ha);
  const ImageHandle hc = store.register_image(make_image(12)).handle;
  EXPECT_TRUE(store.contains(ha));
  EXPECT_FALSE(store.contains(hb));
  EXPECT_TRUE(store.contains(hc));
  const StoreStats s = store.stats();
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_TRUE(s.accounted());
}

TEST(ImageStore, PinBlocksEviction) {
  const RleImage a = make_image(20);
  const std::size_t each = canonical_rle_bytes(a).size();
  StoreConfig cfg;
  cfg.capacity_bytes = each + each / 2;  // room for one
  ImageStore store(cfg);
  const ImageHandle ha = store.register_image(a).handle;
  {
    const SharedImage pin = store.acquire(ha);
    // `a` is pinned and LRU-everything: the new image must not evict it.
    const ImageHandle hb = store.register_image(make_image(21)).handle;
    EXPECT_TRUE(store.contains(ha));
    EXPECT_TRUE(store.contains(hb));
    EXPECT_GT(store.stats().evict_blocked_by_pin, 0u);
    // The pinned image stays readable even while the store is over budget.
    EXPECT_EQ(pin.image(), a);
  }
  // Pin released: the next registration may evict `a` again.
  (void)store.register_image(make_image(22));
  EXPECT_TRUE(store.stats().accounted());
}

// A pin taken before eviction keeps the parsed image alive after the entry
// is gone — and even after the store itself is gone.
TEST(ImageStore, PinSurvivesEvictionAndStoreDestruction) {
  const RleImage a = make_image(30);
  SharedImage pin;
  {
    StoreConfig cfg;
    cfg.capacity_bytes = canonical_rle_bytes(a).size() + 64;
    ImageStore store(cfg);
    const ImageHandle ha = store.register_image(a).handle;
    pin = store.acquire(ha);
    // Pins block eviction; drop to a plain share to let eviction proceed.
    std::shared_ptr<const RleImage> shared = pin.share();
    pin = SharedImage();
    (void)store.register_image(make_image(31));
    EXPECT_FALSE(store.contains(ha));
    EXPECT_EQ(*shared, a);  // still alive past eviction
    pin = store.acquire(store.register_image(a).handle);
  }
  EXPECT_EQ(pin.image(), a);  // still alive past the store
}

// With no pins held, every step stays within the byte budget.
TEST(ImageStore, ChurnKeepsAccountingAndArenaTight) {
  StoreConfig cfg;
  cfg.capacity_bytes = 16 * 1024;
  ImageStore store(cfg);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.register_image(make_image(100 + i, 4, 512)).ok);
    const StoreStats s = store.stats();
    ASSERT_TRUE(s.accounted());
    ASSERT_LE(s.resident_bytes, cfg.capacity_bytes);
  }
  EXPECT_GT(store.stats().evicted, 0u);
}

// TSan hammer: concurrent registers (forcing evictions), acquires, and
// diffs over pinned images.  The assertions are loose — the point is data
// races, not exact counts.
TEST(ImageStore, ConcurrentRegisterEvictDiffHammer) {
  StoreConfig cfg;
  cfg.capacity_bytes = 32 * 1024;
  ImageStore store(cfg);

  std::vector<ImageHandle> warm;
  for (std::uint64_t i = 0; i < 8; ++i)
    warm.push_back(store.register_image(make_image(200 + i, 4, 512)).handle);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> diffs_done{0};
  std::vector<std::thread> threads;
  // Writers: register a churning stream, evicting the warm set repeatedly.
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&store, t] {
      for (std::uint64_t i = 0; i < 60; ++i)
        (void)store.register_image(
            make_image(1000 + static_cast<std::uint64_t>(t) * 1000 + i, 4,
                       512));
    });
  // Readers: acquire warm handles (hit or miss, both fine) and diff what
  // they pin; a pinned image must stay intact mid-diff no matter what the
  // writers evict.
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&store, &warm, &stop, &diffs_done] {
      ImageDiffOptions opt;
      opt.threads = 1;
      std::size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SharedImage a = store.acquire(warm[i % warm.size()]);
        const SharedImage b = store.acquire(warm[(i + 1) % warm.size()]);
        ++i;
        if (!a || !b) continue;
        const ImageDiffResult r = image_diff(a.image(), b.image(), opt);
        ASSERT_EQ(r.diff.height(), a.image().height());
        diffs_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  const StoreStats s = store.stats();
  EXPECT_TRUE(s.accounted());
  EXPECT_GT(s.evicted, 0u);
}

}  // namespace
}  // namespace sysrle
