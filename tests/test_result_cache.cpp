// Tests for the single-flight result table: pending entries (join, release,
// reassign), completion into LRU-resident results, hit/miss accounting,
// LRU eviction order, byte-budget churn, collision defense, and a TSan
// hammer (CI runs this binary under ThreadSanitizer).

#include "store/result_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "rle/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using Kind = ResultCache::Admission::Kind;

RleImage make_image(std::uint64_t seed, pos_t rows = 4, pos_t width = 512) {
  Rng rng(seed);
  RowGenParams p;
  p.width = width;
  return generate_image(rng, rows, p);
}

std::shared_ptr<const RleImage> shared_image(std::uint64_t seed) {
  return std::make_shared<const RleImage>(make_image(seed));
}

ResultKey key_of(std::uint64_t a, std::uint64_t b) {
  ResultKey k;
  k.fp_a = a;
  k.fp_b = b;
  return k;
}

/// A by-value operand: a fresh share of its own copy of `image`.
std::shared_ptr<const RleImage> share(const RleImage& image) {
  return std::make_shared<const RleImage>(image);
}

/// Admits `key` cache-eligible as `call_id` and completes it with `result`.
std::shared_ptr<const CachedDiff> put(ResultCache& cache, const ResultKey& key,
                                      const std::shared_ptr<const RleImage>& a,
                                      const std::shared_ptr<const RleImage>& b,
                                      const CachedDiff& result,
                                      std::uint64_t call_id = 1) {
  EXPECT_EQ(cache.admit(key, a, b, call_id, true).kind, Kind::kOwner);
  return cache.complete(key, call_id, result.diff, result.rows_processed,
                        result.fallback_rows);
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache;
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  const ResultKey key = key_of(10, 20);
  EXPECT_EQ(cache.admit(key, a, b, 1, true).kind, Kind::kOwner);

  CachedDiff result;
  result.diff = make_image(3);
  result.rows_processed = 4;
  ASSERT_NE(cache.complete(key, 1, result.diff, 4, 0), nullptr);

  const ResultCache::Admission hit = cache.admit(key, a, b, 2, true);
  ASSERT_EQ(hit.kind, Kind::kHit);
  EXPECT_EQ(hit.result->diff, result.diff);
  EXPECT_EQ(hit.result->rows_processed, 4u);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_TRUE(s.accounted());
}

// Key equality is not enough: a key hit whose stored operands are different
// images is a fingerprint collision and must fall back to a full compare,
// then degrade to a counted miss — never a wrong answer.
TEST(ResultCache, KeyCollisionFallsBackToFullCompare) {
  ResultCache cache;
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  const ResultKey key = key_of(10, 20);
  put(cache, key, a, b, CachedDiff{make_image(3), 4, 0});

  // Same operand *content* through different allocations: the pointer fast
  // path fails, the full compare succeeds — still a hit.
  const RleImage a_copy = make_image(1);
  const RleImage b_copy = make_image(2);
  EXPECT_EQ(cache.admit(key, share(a_copy), share(b_copy), 2, true).kind,
            Kind::kHit);

  // Same key, different pixels: collision, counted, run unregistered.
  const RleImage other = make_image(99);
  EXPECT_EQ(cache.admit(key, share(other), share(*b), 3, true).kind,
            Kind::kBypass);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.collisions, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);  // the registering admission and the collision
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.pending, 0u);  // the collider was not registered
  EXPECT_TRUE(s.accounted());
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  const CachedDiff payload{make_image(50, 8, 2048), 8, 0};
  const std::size_t each = ResultCache::cost_of(payload.diff);
  CacheConfig cfg;
  cfg.capacity_bytes = 2 * each + each / 2;  // room for two, not three
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  put(cache, key_of(1, 1), a, b, payload, 1);
  put(cache, key_of(2, 2), a, b, payload, 2);
  // Touch key 1 so key 2 is the LRU tail.
  EXPECT_EQ(cache.admit(key_of(1, 1), a, b, 3, true).kind, Kind::kHit);
  put(cache, key_of(3, 3), a, b, payload, 4);

  EXPECT_EQ(cache.admit(key_of(1, 1), a, b, 5, true).kind, Kind::kHit);
  EXPECT_EQ(cache.admit(key_of(2, 2), a, b, 6, true).kind,
            Kind::kOwner);  // evicted: admittable as a fresh computation
  EXPECT_EQ(cache.admit(key_of(3, 3), a, b, 7, true).kind, Kind::kHit);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident, 2u);
  EXPECT_EQ(s.pending, 1u);
  EXPECT_TRUE(s.accounted());
}

// A duplicate of a resident key — matching or colliding — never replaces
// the incumbent; a hit refreshes its recency.
TEST(ResultCache, ReInsertKeepsIncumbentAndRefreshesRecency) {
  const CachedDiff payload{make_image(3, 8, 2048), 8, 0};
  const std::size_t each = ResultCache::cost_of(payload.diff);
  CacheConfig cfg;
  cfg.capacity_bytes = 2 * each + each / 2;  // room for two, not three
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  const ResultKey key = key_of(10, 20);
  put(cache, key, a, b, payload, 1);
  const RleImage other = make_image(99);
  EXPECT_EQ(cache.admit(key, share(other), share(*b), 2, true).kind,
            Kind::kBypass);
  put(cache, key_of(30, 40), a, b, payload, 3);

  const ResultCache::Admission hit = cache.admit(key, a, b, 4, true);
  ASSERT_EQ(hit.kind, Kind::kHit);
  EXPECT_EQ(hit.result->diff, payload.diff);  // incumbent won
  put(cache, key_of(50, 60), a, b, payload, 5);  // evicts the LRU tail

  EXPECT_EQ(cache.admit(key, a, b, 6, true).kind, Kind::kHit);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 3u);  // the collider did not insert
  EXPECT_EQ(s.evictions, 1u);   // key 30/40, not the refreshed incumbent
  EXPECT_EQ(s.resident, 2u);
}

TEST(ResultCache, ByteBudgetHoldsUnderChurn) {
  CacheConfig cfg;
  cfg.capacity_bytes = 32 * 1024;
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  std::uint64_t call_id = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    put(cache, key_of(i, i + 1), a, b,
        CachedDiff{make_image(300 + i, 4, 1024), 4, 0}, ++call_id);
    const ResultKey probe = key_of(i / 2, i / 2 + 1);
    if (cache.admit(probe, a, b, ++call_id, true).kind == Kind::kOwner)
      cache.release(probe, call_id);  // evicted; nothing to recompute here
    const CacheStats s = cache.stats();
    ASSERT_LE(s.resident_bytes, cfg.capacity_bytes);
    ASSERT_TRUE(s.accounted());
    ASSERT_EQ(s.pending, 0u);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

// An oversized result (larger than the whole budget) must not wedge the
// cache: it is either refused or immediately evicted, and accounting holds.
TEST(ResultCache, OversizedResultDoesNotWedge) {
  CacheConfig cfg;
  cfg.capacity_bytes = 1024;
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  put(cache, key_of(1, 2), a, b, CachedDiff{make_image(5, 32, 4096), 32, 0});
  const CacheStats s = cache.stats();
  EXPECT_TRUE(s.accounted());
  EXPECT_EQ(s.pending, 0u);
  // Whatever the policy chose, the budget is respected afterwards.
  EXPECT_LE(s.resident_bytes,
            std::max(cfg.capacity_bytes,
                     ResultCache::cost_of(make_image(5, 32, 4096))));
}

// ------------------------------------------------------- pending entries

// The key is the router's: canonical fingerprints of both operands plus the
// engine options.  Engine, canonicalisation and operand order each name a
// different computation.
TEST(ResultCache, KeyDistinguishesEngineCanonicalizationAndOperandOrder) {
  const RleImage a = make_image(3);
  const RleImage b = make_image(4);
  const std::uint64_t fa = canonical_fingerprint(a);
  const std::uint64_t fb = canonical_fingerprint(b);
  ImageDiffOptions base;
  ImageDiffOptions other_engine = base;
  other_engine.engine = base.engine == DiffEngine::kSystolic
                            ? DiffEngine::kSequentialMerge
                            : DiffEngine::kSystolic;
  ImageDiffOptions no_canon = base;
  no_canon.canonicalize_output = !base.canonicalize_output;

  const ResultKey k = ResultKey::of(fa, fb, base);
  EXPECT_EQ(k, ResultKey::of(fa, fb, base));
  EXPECT_FALSE(k == ResultKey::of(fa, fb, other_engine));
  EXPECT_FALSE(k == ResultKey::of(fa, fb, no_canon));
  EXPECT_FALSE(k == ResultKey::of(fb, fa, base));  // order matters

  ResultCache cache;
  EXPECT_EQ(cache.admit(k, share(a), share(b), 1, false).kind, Kind::kOwner);
  EXPECT_EQ(cache
                .admit(ResultKey::of(fa, fb, other_engine), share(a), share(b),
                       2, false)
                .kind,
            Kind::kOwner);
  EXPECT_EQ(cache
                .admit(ResultKey::of(fa, fb, no_canon), share(a), share(b), 3,
                       false)
                .kind,
            Kind::kOwner);
  EXPECT_EQ(cache
                .admit(ResultKey::of(fb, fa, base), share(b), share(a), 4,
                       false)
                .kind,
            Kind::kOwner);
  EXPECT_EQ(cache.stats().pending, 4u);
}

TEST(ResultCache, SecondAdmitJoinsThePendingOwner) {
  const ResultKey key = key_of(5, 6);
  ResultCache cache;
  {
    // By-value operands: the registration keeps the caller's shares, so
    // the caller may drop them while the entry is pending.
    const RleImage a = make_image(5);
    const RleImage b = make_image(6);
    const ResultCache::Admission first =
        cache.admit(key, share(a), share(b), 11, false);
    EXPECT_EQ(first.kind, Kind::kOwner);
    EXPECT_EQ(first.owner, 11u);
  }
  EXPECT_EQ(cache.stats().pending, 1u);

  const RleImage a = make_image(5);
  const RleImage b = make_image(6);
  const ResultCache::Admission second =
      cache.admit(key, share(a), share(b), 12, false);
  EXPECT_EQ(second.kind, Kind::kJoined);
  EXPECT_EQ(second.owner, 11u);
  EXPECT_EQ(cache.stats().pending, 1u);
}

TEST(ResultCache, ReleaseMakesTheKeyAdmittableAgain) {
  const RleImage a = make_image(7);
  const RleImage b = make_image(8);
  const ResultKey key = key_of(7, 8);
  ResultCache cache;
  ASSERT_EQ(cache.admit(key, share(a), share(b), 1, true).kind, Kind::kOwner);
  cache.release(key, 1);
  EXPECT_EQ(cache.stats().pending, 0u);
  EXPECT_EQ(cache.stats().resident, 0u);
  EXPECT_EQ(cache.admit(key, share(a), share(b), 2, true).kind, Kind::kOwner);
}

TEST(ResultCache, CollisionWithAPendingEntryRunsUnregistered) {
  const RleImage a = make_image(9);
  const RleImage b = make_image(10);
  const RleImage c = make_image(11);
  const RleImage d = make_image(12);
  const ResultKey key = key_of(9, 10);
  ResultCache cache;
  ASSERT_EQ(cache.admit(key, share(a), share(b), 1, false).kind, Kind::kOwner);

  // Same key, different images: exactly what a 64-bit fingerprint collision
  // looks like from the table's side.
  EXPECT_EQ(cache.admit(key, share(c), share(d), 2, false).kind,
            Kind::kCollision);
  EXPECT_EQ(cache.stats().pending, 1u);  // the collider was NOT registered

  // The original owner still holds the key.
  const ResultCache::Admission dup =
      cache.admit(key, share(a), share(b), 3, false);
  EXPECT_EQ(dup.kind, Kind::kJoined);
  EXPECT_EQ(dup.owner, 1u);
}

TEST(ResultCache, ReassignHandsOwnershipToThePromotedWaiter) {
  const RleImage a = make_image(13);
  const RleImage b = make_image(14);
  const ResultKey key = key_of(13, 14);
  ResultCache cache;
  ASSERT_EQ(cache.admit(key, share(a), share(b), 1, false).kind, Kind::kOwner);
  cache.reassign(key, 1, 42);
  const ResultCache::Admission dup =
      cache.admit(key, share(a), share(b), 3, false);
  EXPECT_EQ(dup.kind, Kind::kJoined);
  EXPECT_EQ(dup.owner, 42u);
  // Only the new owner may settle the entry.
  EXPECT_THROW(cache.release(key, 1), contract_error);
  cache.release(key, 42);
  EXPECT_EQ(cache.stats().pending, 0u);
}

TEST(ResultCache, PendingEntryBecomesResidentOnEligibleCompletion) {
  const auto a = shared_image(15);
  const auto b = shared_image(16);
  const ResultKey key = key_of(15, 16);
  ResultCache cache;
  ASSERT_EQ(cache.admit(key, a, b, 1, true).kind, Kind::kOwner);
  EXPECT_EQ(cache.stats().resident, 0u);
  // Re-owned in place by a promoted waiter: the entry keeps its
  // eligibility, so the new owner's completion still becomes resident.
  cache.reassign(key, 1, 2);

  const RleImage diff = make_image(17);
  const std::shared_ptr<const CachedDiff> stored =
      cache.complete(key, 2, diff, 4, 1);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->diff, diff);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.resident_bytes, ResultCache::cost_of(diff));

  const ResultCache::Admission hit = cache.admit(key, a, b, 3, true);
  ASSERT_EQ(hit.kind, Kind::kHit);
  EXPECT_EQ(hit.result, stored);
  EXPECT_EQ(hit.result->fallback_rows, 1u);
}

// A completion admitted without cache eligibility (by-value operands, or no
// cache configured) is erased, never resident, and such admissions leave
// the cache's lookup counters alone — even when they meet a resident entry.
TEST(ResultCache, ByValueCompletionNeverBecomesResident) {
  const RleImage a = make_image(18);
  const RleImage b = make_image(19);
  const ResultKey key = key_of(18, 19);
  ResultCache cache;
  ASSERT_EQ(cache.admit(key, share(a), share(b), 1, false).kind, Kind::kOwner);
  EXPECT_EQ(cache.complete(key, 1, make_image(20), 4, 0), nullptr);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.resident, 0u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.lookups, 0u);
  EXPECT_EQ(cache.admit(key, share(a), share(b), 2, false).kind, Kind::kOwner);
  cache.release(key, 2);

  // A resident result is not served to an ineligible caller.
  const auto sa = std::make_shared<const RleImage>(a);
  const auto sb = std::make_shared<const RleImage>(b);
  put(cache, key, sa, sb, CachedDiff{make_image(20), 4, 0}, 3);
  EXPECT_EQ(cache.admit(key, share(a), share(b), 4, false).kind, Kind::kBypass);
  s = cache.stats();
  EXPECT_EQ(s.lookups, 1u);  // only the eligible registration
  EXPECT_EQ(s.resident, 1u);
  EXPECT_TRUE(s.accounted());
}

// Eligible joins count as misses (the router adds RouterStats::coalesced),
// so lookups == hits + misses holds whatever mix of registrations, joins,
// collisions and hits arrives.
TEST(ResultCache, AccountedHoldsAcrossJoins) {
  const auto a = shared_image(21);
  const auto b = shared_image(22);
  const RleImage other = make_image(23);
  const ResultKey key = key_of(21, 22);
  ResultCache cache;
  ASSERT_EQ(cache.admit(key, a, b, 1, true).kind, Kind::kOwner);
  EXPECT_EQ(cache.admit(key, a, b, 2, true).kind, Kind::kJoined);
  EXPECT_EQ(cache.admit(key, a, b, 3, true).kind, Kind::kJoined);
  EXPECT_EQ(cache.admit(key, share(other), share(*b), 4, true).kind,
            Kind::kCollision);
  EXPECT_EQ(cache.admit(key, share(*a), share(*b), 5, false).kind,
            Kind::kJoined);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 4u);  // the by-value join is not a lookup
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.collisions, 0u);  // a pending collision is the router's count
  EXPECT_TRUE(s.accounted());

  ASSERT_NE(cache.complete(key, 1, make_image(24), 4, 0), nullptr);
  EXPECT_EQ(cache.admit(key, a, b, 6, true).kind, Kind::kHit);
  s = cache.stats();
  EXPECT_EQ(s.lookups, 5u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_TRUE(s.accounted());
}

// TSan hammer: concurrent admits, joins, completions, releases and
// reassigns over a small keyspace with a tiny budget, so hits, misses,
// collisions, evictions, and recency splices all race.
TEST(ResultCache, ConcurrentLookupInsertHammer) {
  CacheConfig cfg;
  cfg.capacity_bytes = 16 * 1024;
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  const RleImage other = make_image(3);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t)
    threads.emplace_back([&cache, &a, &b, &other, t] {
      for (std::uint64_t i = 0; i < 300; ++i) {
        const std::uint64_t k = (t * 7 + i) % 16;
        const ResultKey key = key_of(k, k + 1);
        const std::uint64_t id = t * 1000000 + i + 1;
        const ResultCache::Admission adm =
            cache.admit(key, i % 11 == 5 ? share(other) : a, b, id,
                        /*cacheable=*/i % 5 != 0);
        switch (adm.kind) {
          case Kind::kHit:
            ASSERT_GT(adm.result->diff.height(), 0);
            break;
          case Kind::kJoined:
            ASSERT_NE(adm.owner, id);
            break;
          case Kind::kOwner: {
            const RleImage diff = make_image(500 + k, 4, 1024);
            if (i % 4 == 0) {
              cache.release(key, id);
            } else if (i % 4 == 1) {
              cache.reassign(key, id, id + 500000);
              (void)cache.complete(key, id + 500000, diff, 4, 0);
            } else {
              (void)cache.complete(key, id, diff, 4, 0);
            }
            break;
          }
          case Kind::kCollision:
          case Kind::kBypass:
            break;
        }
      }
    });
  for (std::thread& th : threads) th.join();
  const CacheStats s = cache.stats();
  EXPECT_TRUE(s.accounted());
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.pending, 0u);  // every owner settled its entry
  EXPECT_LE(s.resident_bytes, cfg.capacity_bytes);
}

}  // namespace
}  // namespace sysrle
