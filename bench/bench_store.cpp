// Store extension: what does the persistent image store buy the serving
// stack, and does its accounting hold under churn?
//
// The pre-store serving path pays full ingestion on every request: both
// operands arrive as serialized RLE bytes and must be parsed (read_rle,
// with per-row validation) and fingerprinted (the result-table key hashes
// both images) before the diff engine sees a single run.  The store amortizes
// all of that to registration time — a hot reference image is parsed zero
// times per request.  This bench pins that claim and the store/cache
// accounting identities as named, machine-checkable booleans:
//
//   1. Hot-reference throughput — one reference and a pool of scans are
//      registered once; a request stream cycling those hot pairs is served
//      three ways.  Baseline: parse + fingerprint both operands and diff,
//      per request (exactly the by-value submit path's ingestion work).
//      Acquire-only: resolve both pins from the store and diff — the
//      "parsed zero times per request" half of the claim.  Full stack:
//      acquire + result-cache lookup, diffing only on a cold pair — what
//      `serve --store` actually wires up.  The full stack must clear 5x the
//      baseline's request throughput, the acquire-only path must already
//      beat the baseline, every acquire must hit (zero lookup misses), and
//      all three paths must produce bit-identical diffs per pair.
//   2. Result-cache hit ratio — a 1x1 ShardRouter with store + cache serves
//      K distinct by-handle pairs, each submitted R times sequentially
//      (response awaited between submissions, so no repeat ever joins one
//      still in flight).  The backend engine runs exactly K times; the other
//      K*(R-1) responses come from the cache, bit-identical per pair, and
//      lookups == hits + misses.
//   3. Churn — a deliberately tiny store capacity forces eviction across a
//      long register stream: registered == resident + evicted at every
//      step's end, evictions happen, and a pinned entry survives a capacity
//      storm that evicts everything around it.  The result cache gets the same
//      treatment: budgeted completions evict from the LRU tail and the
//      lookup identity holds.
//
// Flags: --json FILE writes a sysrle.bench.v1 report; --smoke shrinks the
// workload for CI.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixed_table.hpp"
#include "core/image_diff.hpp"
#include "rle/serialize.hpp"
#include "service/shard_router.hpp"
#include "store/image_store.hpp"
#include "store/result_cache.hpp"
#include "telemetry/bench_report.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace {

using namespace sysrle;

RleImage make_image(Rng& rng, pos_t rows, pos_t width, double density) {
  RowGenParams gp;
  gp.width = width;
  gp.density = density;
  return generate_image(rng, rows, gp);
}

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
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
      std::cerr << "usage: bench_store [--json FILE] [--smoke]\n";
      return 2;
    }
  }

  const pos_t kRows = smoke ? 32 : 96;
  const pos_t kWidth = smoke ? 2048 : 8192;
  const int kRequests = smoke ? 120 : 600;
  const std::uint64_t kSeed = 42;

  ImageDiffOptions options;
  options.threads = 1;  // serial rows: the bench measures ingestion, not pool
  // The library fast path, not the cycle-level machine simulation: the
  // claim under test is that the store amortizes per-request *ingestion*
  // (parse + fingerprint), which only shows once the diff itself runs at
  // production speed.  That is the default engine.

  // --- 1. hot-reference throughput ---------------------------------------
  // One reference, a small pool of scans, both sides pre-registered.  The
  // baseline replays the by-value ingestion path per request: deserialize
  // both operands from their SRLB bytes (read_rle validates every row),
  // fingerprint both (the result-table key does), then diff.  Diff payloads
  // are kept per pair and fingerprinted after the clocks stop, so the
  // verification cost never tilts any timed loop.
  Rng rng(kSeed);
  const RleImage reference = make_image(rng, kRows, kWidth, 0.30);
  const int kScanPool = 8;
  std::vector<RleImage> scans;
  for (int i = 0; i < kScanPool; ++i)
    scans.push_back(make_image(rng, kRows, kWidth, 0.28));

  const std::string ref_bytes = canonical_rle_bytes(reference);
  std::vector<std::string> scan_bytes;
  for (const RleImage& s : scans) scan_bytes.push_back(canonical_rle_bytes(s));

  std::vector<RleImage> baseline_diffs(static_cast<std::size_t>(kScanPool),
                                       RleImage{0, 0});
  const auto t_base = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t p = static_cast<std::size_t>(i % kScanPool);
    std::istringstream ra(ref_bytes);
    const RleImage a = read_rle(ra);
    std::istringstream rb(scan_bytes[p]);
    const RleImage b = read_rle(rb);
    (void)canonical_fingerprint(a);
    (void)canonical_fingerprint(b);
    ImageDiffResult r = image_diff(a, b, options);
    if (i < kScanPool) baseline_diffs[p] = std::move(r.diff);
  }
  const double baseline_us = elapsed_us(t_base);

  ImageStore store;  // default 64 MB: everything stays resident
  const ImageHandle ref_handle = store.register_image(reference).handle;
  std::vector<ImageHandle> scan_handles;
  for (const RleImage& s : scans)
    scan_handles.push_back(store.register_image(s).handle);

  // Acquire-only: parsed zero times per request, engine still runs per
  // request.
  std::vector<RleImage> acquire_diffs(static_cast<std::size_t>(kScanPool),
                                      RleImage{0, 0});
  const auto t_acquire = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t p = static_cast<std::size_t>(i % kScanPool);
    const SharedImage a = store.acquire(ref_handle);
    const SharedImage b = store.acquire(scan_handles[p]);
    ImageDiffResult r = image_diff(a.image(), b.image(), options);
    if (i < kScanPool) acquire_diffs[p] = std::move(r.diff);
  }
  const double acquire_us = elapsed_us(t_acquire);

  // Full stack: acquire + result-cache lookup; the engine runs only on the
  // first sight of a pair (what `serve --store` wires through the router).
  ResultCache hot_cache;
  std::vector<RleImage> stack_diffs(static_cast<std::size_t>(kScanPool),
                                    RleImage{0, 0});
  const auto t_stack = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t p = static_cast<std::size_t>(i % kScanPool);
    const SharedImage a = store.acquire(ref_handle);
    const SharedImage b = store.acquire(scan_handles[p]);
    const ResultKey key =
        ResultKey::of(a.fingerprint(), b.fingerprint(), options);
    const std::uint64_t call_id = static_cast<std::uint64_t>(i) + 1;
    std::shared_ptr<const CachedDiff> hit =
        hot_cache
            .admit(key, a.share(), b.share(), call_id, /*cacheable=*/true)
            .result;
    if (!hit) {
      const ImageDiffResult r = image_diff(a.image(), b.image(), options);
      hit = hot_cache.complete(key, call_id, r.diff,
                               static_cast<std::uint64_t>(kRows), 0);
    }
    if (i < kScanPool) stack_diffs[p] = hit->diff;
  }
  const double stack_us = elapsed_us(t_stack);

  const double throughput_ratio = stack_us > 0.0 ? baseline_us / stack_us : 0.0;
  const double acquire_ratio = acquire_us > 0.0 ? baseline_us / acquire_us : 0.0;
  const StoreStats hot_stats = store.stats();
  const bool hot_throughput_5x = throughput_ratio >= 5.0;
  const bool hot_parse_amortized = acquire_ratio > 1.0;
  const bool hot_zero_misses = hot_stats.lookup_misses == 0;
  bool hot_bit_identical = true;
  for (std::size_t p = 0; p < static_cast<std::size_t>(kScanPool); ++p) {
    const std::uint64_t want = canonical_fingerprint(baseline_diffs[p]);
    hot_bit_identical = hot_bit_identical &&
                        canonical_fingerprint(acquire_diffs[p]) == want &&
                        canonical_fingerprint(stack_diffs[p]) == want;
  }
  const bool hot_accounted = hot_stats.accounted() &&
                             hot_cache.stats().accounted();

  std::cout << "--- 1. hot-reference throughput (" << kRequests
            << " requests over " << kScanPool << " hot pairs, " << kRows
            << " rows x " << kWidth << " px) ---\n"
            << "parse-per-request: " << baseline_us / kRequests
            << " us/request   acquire-only: " << acquire_us / kRequests
            << " us/request (" << acquire_ratio
            << "x)\nstore+cache:       " << stack_us / kRequests
            << " us/request   ratio " << throughput_ratio << "x\n"
            << "acquires: " << hot_stats.acquires << " (misses "
            << hot_stats.lookup_misses << ")  bit-identical: "
            << (hot_bit_identical ? "yes" : "NO") << "\n\n";

  // --- 2. result-cache hit ratio ------------------------------------------
  // K distinct pairs, each diffed kRepeats times strictly sequentially
  // through a 1x1 router (the response is awaited before the next submit,
  // so nothing coalesces and every repeat is a clean cache lookup).
  const int kPairs = smoke ? 4 : 8;
  const int kRepeats = 3;
  auto cache_store = std::make_shared<ImageStore>();
  auto cache = std::make_shared<ResultCache>();
  std::vector<ImageHandle> pair_a(static_cast<std::size_t>(kPairs));
  std::vector<ImageHandle> pair_b(static_cast<std::size_t>(kPairs));
  for (int p = 0; p < kPairs; ++p) {
    pair_a[static_cast<std::size_t>(p)] =
        cache_store->register_image(make_image(rng, kRows, kWidth, 0.30))
            .handle;
    pair_b[static_cast<std::size_t>(p)] =
        cache_store->register_image(make_image(rng, kRows, kWidth, 0.28))
            .handle;
  }

  RouterConfig rcfg;
  rcfg.shards = 1;
  rcfg.replicas = 1;
  rcfg.replica_service.workers = 1;
  rcfg.replica_service.admission.interactive_capacity = 4;
  rcfg.replica_service.admission.batch_capacity = 4;
  rcfg.store = cache_store;
  rcfg.cache = cache;

  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t delivered = 0;
  std::map<std::uint64_t, std::uint64_t> diff_fp_by_id;
  bool all_completed = true;
  {
    ShardRouter router(rcfg, [&](ServiceResponse r) {
      std::lock_guard<std::mutex> lk(mu);
      ++delivered;
      if (r.status == ServiceResponse::Status::kCompleted)
        diff_fp_by_id[r.id] = canonical_fingerprint(r.diff);
      else
        all_completed = false;
      cv.notify_all();
    });
    std::uint64_t id = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (int p = 0; p < kPairs; ++p) {
        ServiceRequest req;
        req.id = id++;
        req.priority = Priority::kBatch;
        req.ref_handle = pair_a[static_cast<std::size_t>(p)];
        req.scan_handle = pair_b[static_cast<std::size_t>(p)];
        req.keep_diff = true;
        req.options = options;
        if (router.try_submit(std::move(req))) all_completed = false;
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return delivered >= id; });
      }
    }
    router.drain();
    const RouterStats rt = router.stats();
    const ServiceStats bk = router.backend_stats();
    const CacheStats cs = cache->stats();

    const std::uint64_t total =
        static_cast<std::uint64_t>(kPairs) * kRepeats;
    const std::uint64_t expected_hits =
        static_cast<std::uint64_t>(kPairs) * (kRepeats - 1);
    const double hit_ratio =
        cs.lookups > 0
            ? static_cast<double>(cs.hits) / static_cast<double>(cs.lookups)
            : 0.0;
    // Bit-identical replay: every repeat of pair p reproduced the same
    // canonical diff fingerprint.
    bool replay_identical = all_completed && diff_fp_by_id.size() == total;
    for (std::uint64_t i = 0; replay_identical && i < total; ++i)
      replay_identical =
          diff_fp_by_id[i] ==
          diff_fp_by_id[i % static_cast<std::uint64_t>(kPairs)];
    const bool cache_serves_repeats =
        cs.hits == expected_hits &&
        bk.engine_invocations == static_cast<std::uint64_t>(kPairs);
    const bool cache_accounted = cs.accounted() && rt.accounted();

    std::cout << "--- 2. result-cache hit ratio (" << kPairs << " pairs x "
              << kRepeats << " sequential repeats) ---\n"
              << "engine invocations: " << bk.engine_invocations
              << "  cache hits: " << cs.hits << "/" << cs.lookups
              << " lookups (ratio " << hit_ratio << ")\n"
              << "replay bit-identical: " << (replay_identical ? "yes" : "NO")
              << "\n\n";

    // --- 3. churn -----------------------------------------------------------
    // A 64 KiB store swallows a stream of images far past capacity; the
    // accounting identity must survive, and a pinned entry must ride out
    // the storm.
    StoreConfig tiny;
    tiny.capacity_bytes = 64 * 1024;
    ImageStore churn(tiny);
    const int kChurn = smoke ? 64 : 256;
    const ImageHandle pinned_handle =
        churn.register_image(make_image(rng, 16, 2048, 0.3)).handle;
    const SharedImage pinned = churn.acquire(pinned_handle);
    bool churn_accounted = true;
    for (int i = 0; i < kChurn; ++i) {
      (void)churn.register_image(make_image(rng, 16, 2048, 0.3));
      const StoreStats s = churn.stats();
      churn_accounted = churn_accounted && s.accounted();
    }
    const StoreStats churn_stats = churn.stats();
    const bool churn_evicts = churn_stats.evicted > 0;
    const bool churn_pin_survives =
        churn.contains(pinned_handle) && pinned.image().height() == 16;

    CacheConfig tiny_cache;
    tiny_cache.capacity_bytes = 64 * 1024;
    ResultCache churn_cache(tiny_cache);
    for (int i = 0; i < kChurn; ++i) {
      const RleImage diff = make_image(rng, 16, 2048, 0.3);
      ResultKey key;
      key.fp_a = static_cast<std::uint64_t>(i) + 1;
      key.fp_b = static_cast<std::uint64_t>(i) + 2;
      auto a = std::make_shared<const RleImage>(0, 0);
      auto b = std::make_shared<const RleImage>(0, 0);
      const std::uint64_t call_id = static_cast<std::uint64_t>(i) + 1;
      (void)churn_cache.admit(key, a, b, call_id, true);
      (void)churn_cache.complete(key, call_id, diff, 16, 0);
      (void)churn_cache.admit(key, a, b, call_id, true);
    }
    const CacheStats churn_cache_stats = churn_cache.stats();
    const bool cache_churn_evicts = churn_cache_stats.evictions > 0;
    const bool cache_churn_budget =
        churn_cache_stats.resident_bytes <= tiny_cache.capacity_bytes;
    const bool cache_churn_accounted = churn_cache_stats.accounted();

    std::cout << "--- 3. churn (64 KiB budgets, " << kChurn
              << " registrations / insertions) ---\n"
              << "store: registered " << churn_stats.registered
              << " resident " << churn_stats.resident << " evicted "
              << churn_stats.evicted << " (blocked by pin "
              << churn_stats.evict_blocked_by_pin << ") resident_bytes "
              << churn_stats.resident_bytes << "\n"
              << "cache: insertions " << churn_cache_stats.insertions
              << " evictions " << churn_cache_stats.evictions
              << " resident_bytes " << churn_cache_stats.resident_bytes
              << "\n\n";

    const bool all_ok = hot_throughput_5x && hot_parse_amortized &&
                        hot_zero_misses && hot_bit_identical && hot_accounted &&
                        cache_serves_repeats && replay_identical &&
                        cache_accounted && churn_accounted && churn_evicts &&
                        churn_pin_survives && cache_churn_evicts &&
                        cache_churn_budget && cache_churn_accounted;
    std::cout << "verdict: "
              << (all_ok ? "store holds (all checks pass)"
                         : "STORE GAP (see failed checks)")
              << '\n';

    if (!json_path.empty()) {
      BenchReport report("store");
      report.set_param("rows", static_cast<std::int64_t>(kRows));
      report.set_param("width", static_cast<std::int64_t>(kWidth));
      report.set_param("requests", static_cast<std::int64_t>(kRequests));
      report.set_param("seed", static_cast<std::int64_t>(kSeed));
      report.set_param("smoke", smoke ? "true" : "false");
      report.set_scalar("baseline_us_per_request",
                        baseline_us / kRequests);
      report.set_scalar("acquire_only_us_per_request",
                        acquire_us / kRequests);
      report.set_scalar("store_cache_us_per_request", stack_us / kRequests);
      report.set_scalar("throughput_ratio", throughput_ratio);
      report.set_scalar("acquire_only_ratio", acquire_ratio);
      report.set_scalar("hot_acquires",
                        static_cast<double>(hot_stats.acquires));
      report.set_scalar("cache_engine_invocations",
                        static_cast<double>(bk.engine_invocations));
      report.set_scalar("cache_hits", static_cast<double>(cs.hits));
      report.set_scalar("cache_lookups", static_cast<double>(cs.lookups));
      report.set_scalar("cache_hit_ratio", hit_ratio);
      report.set_scalar("churn_registered",
                        static_cast<double>(churn_stats.registered));
      report.set_scalar("churn_evicted",
                        static_cast<double>(churn_stats.evicted));
      report.set_scalar("churn_evict_blocked_by_pin",
                        static_cast<double>(churn_stats.evict_blocked_by_pin));
      report.set_scalar("churn_resident_bytes",
                        static_cast<double>(churn_stats.resident_bytes));
      report.set_scalar("cache_churn_evictions",
                        static_cast<double>(churn_cache_stats.evictions));
      report.set_check("hot_throughput_5x", hot_throughput_5x);
      report.set_check("hot_parse_amortized", hot_parse_amortized);
      report.set_check("hot_zero_misses", hot_zero_misses);
      report.set_check("hot_bit_identical", hot_bit_identical);
      report.set_check("hot_accounted", hot_accounted);
      report.set_check("cache_serves_repeats", cache_serves_repeats);
      report.set_check("replay_identical", replay_identical);
      report.set_check("cache_accounted", cache_accounted);
      report.set_check("churn_accounted", churn_accounted);
      report.set_check("churn_evicts", churn_evicts);
      report.set_check("churn_pin_survives", churn_pin_survives);
      report.set_check("cache_churn_evicts", cache_churn_evicts);
      report.set_check("cache_churn_budget", cache_churn_budget);
      report.set_check("cache_churn_accounted", cache_churn_accounted);
      report.write_file(json_path);
    }
    return all_ok ? 0 : 1;
  }
}
