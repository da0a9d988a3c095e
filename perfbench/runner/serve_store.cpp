// serve_store: by-handle traffic over a DurableStore and a ResultCache.
//
// Open loop, Poisson arrivals at a fixed rate.  Set-up recovers a store
// directory pre-populated (outside the timed region) with prior scans and the
// board designs, builds the result cache and the router (same topology as
// serve_scan, no flight recorder), and warms the cache with the re-view
// window.  Each arrival is one of:
//   upload   a new scan arrives as SRLB bytes: read_rle, register_image
//            (journal fsync per record), then a batch diff of the scan
//            against its board, which misses the cache and runs the engine;
//   re-view  an interactive diff of a recent pair drawn with a skew toward
//            the newest uploads: a cache hit, a coalesced join while the
//            upload's diff is still in flight, or (when LRU dropped it) a
//            miss that runs the engine again.
// The cache budget is smaller than the re-viewed working set, so LRU policy
// sets the hit ratio (about 0.6 of re-views).  The store keeps its default
// budget, so every re-viewed scan is resident.
//
// Uploads are registered in arrival order by a second client thread, so a
// slow journal fsync delays the uploads behind it but not the re-views of
// other users: a re-view's age counts back from the newest upload already
// acknowledged when it arrives.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bitmap/convert.hpp"
#include "rle/serialize.hpp"
#include "serving.hpp"
#include "store/durable_store.hpp"
#include "store/result_cache.hpp"
#include "telemetry/flight_recorder.hpp"

namespace perfbench {

using namespace sysrle;

namespace {

constexpr pos_t kWidth = 1024;
constexpr pos_t kHeight = 128;
constexpr std::size_t kBoards = 4;
constexpr std::size_t kPriorScans = 320;
constexpr double kErrorFraction = 0.035;
/// Fixed offered load (operations/s) and the upload share of arrivals.
constexpr double kRate = 200.0;
constexpr double kUploadShare = 0.4;
/// Re-views pick the scan `age` uploads back, age ~ geometric(kReviewSkew),
/// redrawn until it falls inside the window.
constexpr std::size_t kReviewWindow = 64;
constexpr double kReviewSkew = 0.06;
/// Smaller than the diffs of the re-view window.
constexpr std::size_t kCacheCapacityBytes = std::size_t{384} << 10;
/// Goodput latency limits (scheduled arrival to delivery / acknowledgement).
constexpr double kInteractiveLimitMs = 100.0;
constexpr double kBatchLimitMs = 500.0;
constexpr std::uint64_t kWarmupIdBase = std::uint64_t{1} << 62;

struct Arrival {
  double at = 0.0;
  bool upload = false;
  /// upload: the scan uploaded, an index into Inputs::scan_board (scan
  /// kPriorScans + k is the k-th upload); re-view: the age of the pair in
  /// acknowledged uploads (0 = newest).
  std::size_t scan_or_age = 0;
};

struct Inputs {
  /// Scan i of the whole sequence (prior scans first, then uploads) diffs
  /// against board scan_board[i]; expected[i] is the oracle fingerprint.
  std::vector<std::size_t> scan_board;
  std::vector<std::uint64_t> expected;
  std::vector<std::string> upload_srlb;
  std::vector<Arrival> schedule;
  std::string pristine_dir;
};

std::string scan_label(std::size_t i) { return "scan" + std::to_string(i); }
std::string board_label(std::size_t b) { return "board" + std::to_string(b); }

Inputs build_inputs(const Options& opts) {
  Inputs in;
  Rng rng = rng_for(opts.seed, 11);
  std::vector<RleImage> boards;
  for (std::size_t b = 0; b < kBoards; ++b)
    boards.push_back(bitmap_to_rle(make_board(rng, kWidth, kHeight)));

  Rng arrivals = rng_for(opts.seed, 12);
  std::size_t uploads = 0;
  for (const double at : poisson_arrivals(arrivals, kRate, opts.seconds)) {
    Arrival a;
    a.at = at;
    a.upload = arrivals.bernoulli(kUploadShare);
    if (a.upload) {
      a.scan_or_age = kPriorScans + uploads++;
    } else {
      do {
        a.scan_or_age = 0;
        while (!arrivals.bernoulli(kReviewSkew)) ++a.scan_or_age;
      } while (a.scan_or_age >= kReviewWindow);
    }
    in.schedule.push_back(a);
  }

  // Prior scans go into the pristine store directory; uploads stay as bytes.
  in.pristine_dir = fresh_dir(opts, "serve_store/pristine");
  DurableStoreConfig dc;
  dc.dir = in.pristine_dir;
  DurableStore pristine(dc);
  for (std::size_t i = 0; i < kPriorScans + uploads; ++i) {
    const std::size_t b = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kBoards) - 1));
    const RleImage scan = make_scan(rng, boards[b], kErrorFraction);
    in.scan_board.push_back(b);
    in.expected.push_back(oracle_fingerprint(boards[b], scan));
    if (i < kPriorScans)
      pristine.register_image(scan, scan_label(i));
    else
      in.upload_srlb.push_back(srlb_bytes(scan));
  }
  // Boards last, so they are the most recently used entries on recovery.
  for (std::size_t b = 0; b < kBoards; ++b)
    pristine.register_image(boards[b], board_label(b));
  return in;
}

/// Runs `handle(i)` for every pushed index, in order, on its own thread.
class UploadClient {
 public:
  explicit UploadClient(std::function<void(std::size_t)> handle)
      : handle_(std::move(handle)), thread_([this] { loop(); }) {}
  ~UploadClient() { finish(); }
  UploadClient(const UploadClient&) = delete;
  UploadClient& operator=(const UploadClient&) = delete;

  void push(std::size_t i) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(i);
    }
    cv_.notify_one();
  }
  /// Handles everything queued, then stops the thread.
  void finish() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closing_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return closing_ || !queue_.empty(); });
        if (queue_.empty()) return;
        i = queue_.front();
        queue_.pop_front();
      }
      handle_(i);
    }
  }

  std::function<void(std::size_t)> handle_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> queue_;
  bool closing_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

/// Published in place of a handle when an upload failed to register.
constexpr ImageHandle kNoHandle = ~ImageHandle{0};

struct Slot : ServedSlot {
  std::size_t scan = 0;  ///< index into Inputs::scan_board / expected
  bool upload = false;
  // Uploads only:
  bool registered = false;
  TimePoint acked;  ///< register acknowledged
  double read_us = 0.0;
  double register_us = 0.0;
};

Report run_phase(const Inputs& in, const Options& opts, Tracer& tracer) {
  Report rep;
  // The arrivals of the phase's first opts.seconds.
  const std::size_t n = static_cast<std::size_t>(
      std::partition_point(in.schedule.begin(), in.schedule.end(),
                           [&](const Arrival& a) { return a.at < opts.seconds; }) -
      in.schedule.begin());
  std::unique_ptr<Slot[]> slots(new Slot[n]);
  std::atomic<std::uint64_t> warm_delivered{0};
  const ShardRouter::Completion on_complete = [&](ServiceResponse r) {
    const TimePoint now = Clock::now();
    if (r.id >= kWarmupIdBase) {
      warm_delivered.fetch_add(1);
      return;
    }
    Slot& s = slots[r.id];
    s.done = now;
    s.response = std::move(r);
    s.deliveries.fetch_add(1);
  };
  set_flight_recorder(nullptr);

  const std::string live_dir = fresh_dir(opts, "serve_store/live");
  std::vector<double> setup_s;
  std::unique_ptr<DurableStore> durable;
  std::shared_ptr<ResultCache> cache;
  std::unique_ptr<ShardRouter> router;
  std::vector<ImageHandle> board_handle(kBoards);
  /// 0 until the scan is registered (uploads publish theirs when acked).
  std::unique_ptr<std::atomic<ImageHandle>[]> scan_handle(
      new std::atomic<ImageHandle>[in.scan_board.size()]);
  for (std::size_t i = 0; i < in.scan_board.size(); ++i) scan_handle[i] = 0;
  std::uint64_t warm_sent = 0;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    router.reset();
    cache.reset();
    durable.reset();
    std::filesystem::remove_all(live_dir);
    std::filesystem::copy(in.pristine_dir, live_dir,
                          std::filesystem::copy_options::recursive);

    const TimePoint t0 = Clock::now();
    DurableStoreConfig dc;
    dc.dir = live_dir;
    durable = std::make_unique<DurableStore>(dc);
    const std::map<std::string, ImageHandle> labels = durable->labels();
    for (std::size_t b = 0; b < kBoards; ++b)
      board_handle[b] = labels.at(board_label(b));
    for (std::size_t i = 0; i < kPriorScans; ++i)
      scan_handle[i] = labels.at(scan_label(i));
    cache = std::make_shared<ResultCache>(CacheConfig{kCacheCapacityBytes});
    RouterConfig cfg;
    cfg.shards = 2;
    cfg.replicas = 2;
    cfg.replica_service.workers = 1;
    cfg.seed = opts.seed;
    cfg.store = durable->store_ptr();
    cfg.cache = cache;
    router = std::make_unique<ShardRouter>(cfg, on_complete);
    // Warm the cache with the re-view window, oldest first.
    for (std::size_t i = kPriorScans - kReviewWindow; i < kPriorScans; ++i) {
      ServiceRequest req;
      req.id = kWarmupIdBase + warm_sent;
      req.ref_handle = board_handle[in.scan_board[i]];
      req.scan_handle = scan_handle[i].load();
      if (!router->try_submit(std::move(req))) ++warm_sent;
    }
    while (warm_delivered.load() < warm_sent)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const RouterStats rs0 = router->stats();
  const ServiceStats ss0 = router->backend_stats();
  const StoreStats st0 = durable->store().stats();
  const CacheStats cs0 = cache->stats();
  const DurabilityStats ds0 = durable->durability_stats();

  // ---- measured open loop -------------------------------------------------
  const auto submit = [&](std::size_t i, Priority priority, ImageHandle scan) {
    Slot& s = slots[i];
    ServiceRequest req;
    req.id = i;
    req.priority = priority;
    req.ref_handle = board_handle[in.scan_board[s.scan]];
    req.scan_handle = scan;
    const std::optional<RejectReason> shed =
        timed(tracer, i, "service.router_submit", s.submit_us,
              [&] { return router->try_submit(std::move(req)); });
    s.admitted = !shed;
  };
  std::atomic<std::size_t> uploads_acked{0};
  UploadClient uploads([&](std::size_t i) {
    Slot& s = slots[i];
    s.started = Clock::now();
    ImageHandle handle = kNoHandle;
    try {
      const RleImage scan = timed(tracer, i, "rle.read_rle", s.read_us, [&] {
        std::istringstream bytes(in.upload_srlb[s.scan - kPriorScans]);
        return read_rle(bytes);
      });
      const ImageStore::RegisterResult reg =
          timed(tracer, i, "store.register", s.register_us, [&] {
            return durable->register_image(scan, scan_label(s.scan));
          });
      s.acked = Clock::now();
      s.registered = reg.ok && !reg.collision;
      if (s.registered) handle = reg.handle;
    } catch (const std::exception&) {
      s.registered = false;
    }
    scan_handle[s.scan].store(handle, std::memory_order_release);
    uploads_acked.fetch_add(1, std::memory_order_release);
    if (s.registered) submit(i, Priority::kBatch, handle);
  });
  const TimePoint start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = in.schedule[i];
    Slot& s = slots[i];
    s.sched = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(a.at));
    s.upload = a.upload;
    std::this_thread::sleep_until(s.sched);
    if (a.upload) {
      s.scan = a.scan_or_age;
      uploads.push(i);
      continue;
    }
    s.started = Clock::now();
    const std::size_t newest =
        kPriorScans + uploads_acked.load(std::memory_order_acquire) - 1;
    s.scan = newest - a.scan_or_age;
    submit(i, Priority::kInteractive,
           scan_handle[s.scan].load(std::memory_order_acquire));
  }
  uploads.finish();
  router->drain();

  // ---- results, oracle, gates (outside the timed path) ---------------------
  const StoreStats st = durable->store().stats();
  const CacheStats cs = cache->stats();
  const DurabilityStats ds = durable->durability_stats();
  Samples inter, batch, upload_us, lag, read_us, register_us, submit_us,
      queue_ms, exec_ms, fp_us;
  std::uint64_t attempted = 0, good = 0, failed = 0, mismatches = 0,
                bad_deliveries = 0, diffs_good = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    if (!s.delivery_accounted()) ++bad_deliveries;
    lag.add(ms_between(s.sched, s.started));
    ++attempted;  // the diff request (or the upload that never got one)
    if (s.upload) {
      ++attempted;  // the register
      read_us.add(s.read_us);
      register_us.add(s.register_us);
      upload_us.add(s.read_us + s.register_us);
      if (!s.registered) {
        failed += 2;
        continue;
      }
      if (ms_between(s.sched, s.acked) <= kBatchLimitMs) ++good;
    }
    submit_us.add(s.submit_us);
    if (!s.completed()) {
      ++failed;
      continue;
    }
    const TimePoint f0 = Clock::now();
    const std::uint64_t fp = canonical_fingerprint(s.response.diff);
    fp_us.add(us_between(f0, Clock::now()));
    if (fp != in.expected[s.scan]) {
      ++mismatches;
      ++failed;
      continue;
    }
    const double ms = ms_between(s.sched, s.done);
    (s.upload ? batch : inter).add(ms);
    if (ms <= (s.upload ? kBatchLimitMs : kInteractiveLimitMs)) {
      ++good;
      ++diffs_good;
    }
    if (!s.response.from_cache) {
      queue_ms.add(s.response.queue_us / 1000.0);
      exec_ms.add(s.response.service_us / 1000.0);
    }
    trace_served(tracer, i, s);
  }
  const RecoveryReport& rec = ds.recovery;
  const std::uint64_t register_records =
      rec.snapshot_entries + rec.journal_records - rec.replayed_evicts -
      rec.evicts_unmatched;
  rep.attempted = attempted;
  rep.failed = failed;
  rep.gate(n > 0, "empty schedule");
  rep.gate(mismatches == 0,
           std::to_string(mismatches) + " diffs differ from the oracle");
  rep.gate(bad_deliveries == 0, std::to_string(bad_deliveries) +
                                    " requests without exactly one delivery"
                                    " per admission");
  add_serving_metrics(rep, rs0, router->stats(), ss0, router->backend_stats());
  rep.gate(st.accounted(), "StoreStats::accounted() is false");
  rep.gate(cs.accounted(), "CacheStats::accounted() is false");
  rep.gate(rec.replayed_registers + rec.dropped() == register_records,
           "durability accounting identity is false");
  rep.gate(rec.dropped() == 0, "recovery dropped records of a clean store");

  const double pixels = static_cast<double>(kWidth) * kHeight;
  rep.foreground_p50_ms = inter.pct(0.5);
  rep.setup(std::move(setup_s));
  rep.e2e("p50_ms", inter.pct(0.5), "ms");
  rep.e2e("goodput_rps", static_cast<double>(good) / opts.seconds, "1/s");
  rep.e2e("diff_mpix_s",
          static_cast<double>(diffs_good) * pixels / 1e6 / opts.seconds,
          "Mpix/s");
  rep.layer("p99_ms", inter.pct(0.99), "ms");
  rep.layer("batch_p99_ms", batch.pct(0.99), "ms");
  rep.layer("ingest_p99_ms", upload_us.pct(0.99) / 1000.0, "ms");
  rep.layer("bench.gen_lag_ms_p50", lag.pct(0.5), "ms");
  rep.layer("bench.gen_lag_ms_p99", lag.pct(0.99), "ms");
  rep.layer("bench.p99_samples", static_cast<double>(inter.size()), "count");
  rep.layer("rle.read_us_p50", read_us.pct(0.5), "us");
  rep.layer("rle.fingerprint_us_p50", fp_us.pct(0.5), "us");
  rep.layer("router.submit_us_p50", submit_us.pct(0.5), "us");
  rep.layer("router.submit_us_p99", submit_us.pct(0.99), "us");
  rep.layer("service.queue_ms_p99", queue_ms.pct(0.99), "ms");
  rep.layer("service.exec_ms_p50", exec_ms.pct(0.5), "ms");
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  rep.layer("store.register_us_p50", register_us.pct(0.5), "us");
  rep.layer("store.register_us_p99", register_us.pct(0.99), "us");
  rep.layer("store.journal_fsyncs",
            delta(ds.journal.fsyncs, ds0.journal.fsyncs), "count");
  rep.layer("store.journal_bytes",
            delta(ds.journal.appended_bytes, ds0.journal.appended_bytes),
            "bytes");
  rep.layer("store.evicted", delta(st.evicted, st0.evicted), "count");
  rep.layer("store.lookup_misses",
            delta(st.lookup_misses, st0.lookup_misses), "count");
  rep.layer("store.recovery_replayed",
            static_cast<double>(rec.replayed_registers), "count");
  const double lookups = delta(cs.lookups, cs0.lookups);
  rep.layer("cache.lookups", lookups, "count");
  rep.layer("cache.hit_ratio",
            lookups > 0 ? delta(cs.hits, cs0.hits) / lookups : 0.0, "share");
  rep.layer("cache.evictions", delta(cs.evictions, cs0.evictions), "count");

  router.reset();
  return rep;
}

}  // namespace

Runner prepare_serve_store(const Options& opts) {
  auto in = std::make_shared<const Inputs>(build_inputs(opts));
  return [in](const Options& o, Tracer& tracer) {
    return run_phase(*in, o, tracer);
  };
}

}  // namespace perfbench
