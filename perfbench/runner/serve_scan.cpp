// serve_scan: by-value inspection traffic through the sharded router.
//
// Open loop, Poisson arrivals at a fixed absolute rate, one request in four
// interactive.  Each request pairs a board design (parsed from PBM once, at
// set-up) with a scan that arrives as packed PBM bytes, is ingested with
// read_pbm + bitmap_to_rle on the generator thread, and is submitted to a
// 2-shard x 2-replica ShardRouter with one worker per replica, hedging and
// coalescing at their defaults, and a FlightRecorder installed.  A few scans
// are re-submitted while the original is still in flight.

#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "bitmap/convert.hpp"
#include "bitmap/pbm_io.hpp"
#include "rle/serialize.hpp"
#include "serving.hpp"
#include "telemetry/flight_recorder.hpp"

namespace perfbench {

using namespace sysrle;

namespace {

constexpr pos_t kWidth = 1024;
constexpr pos_t kHeight = 128;
constexpr std::size_t kBoards = 64;
constexpr std::size_t kScans = 1024;
constexpr double kErrorFraction = 0.035;
/// Fixed offered load (requests/s): about a fifth of the rate at which the
/// single generator thread saturates on a 4-vCPU host (see README); never
/// derived at run time.
constexpr double kRate = 200.0;
constexpr double kInteractiveShare = 0.25;
constexpr double kResubmitShare = 0.03;
constexpr double kResubmitDelayS = 200e-6;
/// Goodput latency limits per class (scheduled arrival to delivery).
constexpr double kInteractiveLimitMs = 100.0;
constexpr double kBatchLimitMs = 500.0;

struct Arrival {
  double at = 0.0;
  std::size_t scan = 0;
  Priority priority = Priority::kBatch;
};

struct Inputs {
  std::vector<std::string> board_pbm;
  std::vector<std::string> scan_pbm;
  std::vector<std::size_t> scan_board;
  std::vector<std::uint64_t> expected;  ///< oracle diff fingerprint per scan
  std::vector<Arrival> schedule;
};

Inputs build_inputs(const Options& opts) {
  Inputs in;
  Rng rng = rng_for(opts.seed, 1);
  std::vector<RleImage> boards;
  for (std::size_t b = 0; b < kBoards; ++b) {
    const BitmapImage art = make_board(rng, kWidth, kHeight);
    in.board_pbm.push_back(pbm_bytes(art));
    boards.push_back(bitmap_to_rle(art));
  }
  for (std::size_t s = 0; s < kScans; ++s) {
    const std::size_t b = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kBoards) - 1));
    const RleImage scan = make_scan(rng, boards[b], kErrorFraction);
    in.scan_pbm.push_back(pbm_bytes(rle_to_bitmap(scan)));
    in.scan_board.push_back(b);
    in.expected.push_back(oracle_fingerprint(boards[b], scan));
  }
  Rng arrivals = rng_for(opts.seed, 2);
  for (const double at : poisson_arrivals(arrivals, kRate, opts.seconds)) {
    Arrival a;
    a.at = at;
    a.scan = static_cast<std::size_t>(
        arrivals.uniform(0, static_cast<std::int64_t>(kScans) - 1));
    a.priority = arrivals.bernoulli(kInteractiveShare) ? Priority::kInteractive
                                                       : Priority::kBatch;
    in.schedule.push_back(a);
    if (arrivals.bernoulli(kResubmitShare)) {
      Arrival again = a;
      again.at = at + kResubmitDelayS;
      in.schedule.push_back(again);
    }
  }
  std::stable_sort(in.schedule.begin(), in.schedule.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.at < y.at;
                   });
  return in;
}

RleImage ingest(const std::string& pbm) {
  std::istringstream bytes(pbm);
  return bitmap_to_rle(read_pbm(bytes));
}

struct Slot : ServedSlot {
  double ingest_us = 0.0;
};

Report run_phase(const Inputs& in, const Options& opts, Tracer& tracer) {
  Report rep;
  // The arrivals of the phase's first opts.seconds.
  const std::size_t n = static_cast<std::size_t>(
      std::partition_point(in.schedule.begin(), in.schedule.end(),
                           [&](const Arrival& a) { return a.at < opts.seconds; }) -
      in.schedule.begin());
  std::unique_ptr<Slot[]> slots(new Slot[n]);
  const ShardRouter::Completion on_complete = [&](ServiceResponse r) {
    const TimePoint now = Clock::now();
    Slot& s = slots[r.id];
    s.done = now;
    s.response = std::move(r);
    s.deliveries.fetch_add(1);
  };

  RouterConfig cfg;
  cfg.shards = 2;
  cfg.replicas = 2;
  cfg.replica_service.workers = 1;
  cfg.seed = opts.seed;

  // ---- set-up, repeated; the last one serves the run: parse the board
  // designs, install the recorder, start the router ------------------------
  std::vector<double> setup_s;
  std::vector<RleImage> refs;
  std::unique_ptr<FlightRecorder> recorder;
  std::unique_ptr<ShardRouter> router;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    router.reset();
    set_flight_recorder(nullptr);
    recorder.reset();
    refs.clear();
    const TimePoint t0 = Clock::now();
    for (const std::string& pbm : in.board_pbm) refs.push_back(ingest(pbm));
    recorder = std::make_unique<FlightRecorder>();
    set_flight_recorder(recorder.get());
    router = std::make_unique<ShardRouter>(cfg, on_complete);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const RouterStats rs0 = router->stats();
  const ServiceStats ss0 = router->backend_stats();
  const std::uint64_t fr0 = recorder->recorded();

  // ---- measured open loop -------------------------------------------------
  const TimePoint start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = in.schedule[i];
    Slot& s = slots[i];
    s.sched = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(a.at));
    std::this_thread::sleep_until(s.sched);
    s.started = Clock::now();
    ServiceRequest req;
    req.id = i;
    req.priority = a.priority;
    req.reference = refs[in.scan_board[a.scan]];
    req.scan = timed(tracer, i, "bitmap.ingest", s.ingest_us,
                     [&] { return ingest(in.scan_pbm[a.scan]); });
    const std::optional<RejectReason> shed =
        timed(tracer, i, "service.router_submit", s.submit_us,
              [&] { return router->try_submit(std::move(req)); });
    s.admitted = !shed;
  }
  router->drain();

  // ---- results, oracle, gates (outside the timed path) ---------------------
  Samples inter, batch, lag, ingest_us, submit_us, queue_ms, exec_ms, fp_us;
  std::uint64_t good = 0, failed = 0, mismatches = 0, bad_deliveries = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    const Arrival& a = in.schedule[i];
    if (!s.delivery_accounted()) ++bad_deliveries;
    lag.add(ms_between(s.sched, s.started));
    ingest_us.add(s.ingest_us);
    submit_us.add(s.submit_us);
    if (!s.completed()) {
      ++failed;
      continue;
    }
    const TimePoint f0 = Clock::now();
    const std::uint64_t fp = canonical_fingerprint(s.response.diff);
    fp_us.add(us_between(f0, Clock::now()));
    if (fp != in.expected[a.scan]) {
      ++mismatches;
      ++failed;
      continue;
    }
    const double ms = ms_between(s.sched, s.done);
    const bool interactive = a.priority == Priority::kInteractive;
    (interactive ? inter : batch).add(ms);
    if (ms <= (interactive ? kInteractiveLimitMs : kBatchLimitMs)) ++good;
    queue_ms.add(s.response.queue_us / 1000.0);
    exec_ms.add(s.response.service_us / 1000.0);
    trace_served(tracer, i, s);
  }
  rep.attempted = n;
  rep.failed = failed;
  rep.gate(n > 0, "empty schedule");
  rep.gate(mismatches == 0,
           std::to_string(mismatches) + " diffs differ from the oracle");
  rep.gate(bad_deliveries == 0, std::to_string(bad_deliveries) +
                                    " requests without exactly one delivery"
                                    " per admission");
  add_serving_metrics(rep, rs0, router->stats(), ss0, router->backend_stats());

  const double pixels = static_cast<double>(kWidth) * kHeight;
  rep.foreground_p50_ms = inter.pct(0.5);
  rep.setup(std::move(setup_s));
  rep.e2e("p50_ms", inter.pct(0.5), "ms");
  rep.e2e("goodput_rps", static_cast<double>(good) / opts.seconds, "1/s");
  rep.e2e("diff_mpix_s",
          static_cast<double>(good) * pixels / 1e6 / opts.seconds, "Mpix/s");
  rep.layer("p99_ms", inter.pct(0.99), "ms");
  rep.layer("batch_p99_ms", batch.pct(0.99), "ms");
  rep.layer("ingest_p99_ms", ingest_us.pct(0.99) / 1000.0, "ms");
  rep.layer("bench.gen_lag_ms_p50", lag.pct(0.5), "ms");
  rep.layer("bench.gen_lag_ms_p99", lag.pct(0.99), "ms");
  rep.layer("bench.p99_samples", static_cast<double>(inter.size()), "count");
  rep.layer("bitmap.ingest_us_p50", ingest_us.pct(0.5), "us");
  rep.layer("rle.fingerprint_us_p50", fp_us.pct(0.5), "us");
  rep.layer("router.submit_us_p50", submit_us.pct(0.5), "us");
  rep.layer("router.submit_us_p99", submit_us.pct(0.99), "us");
  rep.layer("service.queue_ms_p99", queue_ms.pct(0.99), "ms");
  rep.layer("service.exec_ms_p50", exec_ms.pct(0.5), "ms");
  rep.layer("telemetry.flight_events",
            static_cast<double>(recorder->recorded() - fr0), "count");
  rep.layer("telemetry.flight_dropped",
            static_cast<double>(recorder->dropped()), "count");

  router.reset();
  set_flight_recorder(nullptr);
  return rep;
}

}  // namespace

Runner prepare_serve_scan(const Options& opts) {
  auto in = std::make_shared<const Inputs>(build_inputs(opts));
  return [in](const Options& o, Tracer& tracer) {
    return run_phase(*in, o, tracer);
  };
}

}  // namespace perfbench
