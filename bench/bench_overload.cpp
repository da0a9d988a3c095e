// Robustness extension: what happens when offered load exceeds capacity?
//
// The paper bounds per-row latency on one machine; the ROADMAP's north star
// is a fleet "serving heavy traffic from millions of users".  This bench
// drives the DiffService (src/service) through the load regimes an
// inspection cluster actually sees and validates the serving-side promises
// as named, machine-checkable booleans:
//
//   1. Load sweep (0.5x, 1x, 2x capacity) — every offered request is either
//      admitted or shed with a typed reason (zero silent drops), and the
//      p99 latency of *admitted interactive* requests at 2x stays within 2x
//      of its at-capacity value: the bounded queue converts overload into
//      typed sheds instead of unbounded queueing delay.
//   2. Deadline storm — requests carrying deadlines shorter than the queue
//      delay are shed as deadline_expired (at submit or after admission),
//      and expired requests stop consuming engine cycles mid-image.
//   3. Breaker trip — a 1-shard x 2-replica ShardRouter with the checked
//      engine, an injected permanent fault and no fallback: every request
//      fails, the router's per-replica breaker (the serving path's only
//      breaker) quarantines each replica after `failure_threshold`
//      consecutive failures, and later arrivals shed as shard_down without
//      touching a backend.  Requests are offered one at a time, each after
//      the previous one's response, so the check holds however long one
//      faulted request takes.
//   4. Farm relief — a farm with one permanently flaky machine, with and
//      without per-machine circuit breakers: the breaker caps the wasted
//      dispatches at threshold + half-open probes and the makespan drops
//      back toward the healthy-farm value.
//   5. Hot shard — a 2x2 ShardRouter topology with 70% of route keys pinned
//      to one shard at 2x load: the router's accounting identity holds
//      while the hot shard queues, sheds and fails over.
//   6. Kill a replica — same topology at 0.5x load; a hot-shard replica is
//      killed mid-phase.  Zero silent drops (router accounting identity
//      holds across the kill) and interactive p99 stays within 2x of the
//      healthy-topology phase driven by the *identical* arrival stream.
//      The phase runs under a FlightRecorder sized to hold every event, and
//      the bench replays the ring afterwards: every offered request id must
//      reconstruct to a timeline ending in a terminal event (respond or a
//      router-level shed), and every failed-over / coalesced request must
//      have its respond on record.
//   7. Flight-recorder overhead — the closed-loop calibration workload runs
//      twice, recorder installed vs not; the instrumented per-request cost
//      must stay within 25% of the disabled cost (the disabled fast path is
//      one relaxed atomic load, the enabled path a ticket fetch_add plus
//      relaxed stores per event).
//
// Arrival streams are a pure function of (seed, phase index) — never of
// worker count or topology — so any two phases handed the same pair see
// byte-identical offered traffic (docs/TESTING.md, "Deterministic
// randomness").
//
// Flags: --json FILE writes a sysrle.bench.v1 report; --smoke shrinks the
// workload for CI.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fixed_table.hpp"
#include "common/stats.hpp"
#include "core/faults.hpp"
#include "core/machine_farm.hpp"
#include "service/service.hpp"
#include "service/shard_router.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace {

using namespace sysrle;

/// The engine the load phases run.  Load is offered as a multiple of the
/// calibrated service time, and the open-loop generator's sleeps only reach
/// 2x capacity while a request costs well above their granularity: true of
/// the cycle-level simulator, not of the ~5x faster word-parallel serving
/// default.  The phases test admission, deadlines and failover, so the
/// engine is only the load.
constexpr DiffEngine kLoadEngine = DiffEngine::kSystolic;

struct ImagePair {
  RleImage a{0, 0};
  RleImage b{0, 0};
};

/// A small pool of distinct reference/scan pairs reused round-robin, so the
/// submission loop never pays generation cost while pacing arrivals.
std::vector<ImagePair> make_pool(std::size_t n, pos_t rows, pos_t width,
                                 double error_fraction, std::uint64_t seed) {
  std::vector<ImagePair> pool(n);
  Rng rng(seed);
  for (ImagePair& p : pool) {
    RowGenParams gp;
    gp.width = width;
    p.a = generate_image(rng, rows, gp);
    p.b = RleImage(width, rows);
    ErrorGenParams ep;
    ep.error_fraction = error_fraction;
    for (pos_t y = 0; y < rows; ++y)
      p.b.set_row(y, inject_errors(rng, p.a.row(y), width, ep));
  }
  return pool;
}

/// What one load phase produced, folded from the completion callback and the
/// service's own accounting.
struct PhaseOutcome {
  ServiceStats stats;
  RunningStat interactive_us;
  RunningStat batch_us;
  std::uint64_t responses = 0;
  std::uint64_t rows_processed = 0;

  /// offered == admitted + every typed submit-shed, and every admitted
  /// request produced exactly one response: nothing vanished.
  bool accounted() const {
    const std::uint64_t submit_shed = stats.shed_queue_full +
                                      stats.shed_shutdown +
                                      stats.shed_deadline_at_submit;
    return stats.offered == stats.admitted + submit_shed &&
           responses == stats.admitted;
  }
};

/// Measures the fleet's saturated throughput: `n` requests are queued all at
/// once against `workers` workers (caps wide open) and the wall time per
/// request, from the first submit to the drained queue, is the effective
/// service interval, contention included.  One untimed warm-up round comes
/// first, and the result is the median of kCalibrationRounds timed rounds,
/// so neither a cold start nor one descheduled round sets the capacity the
/// load phases scale from.  The returned value is the µs of *fleet* time one
/// request costs, i.e. the at-capacity inter-arrival interval.
double calibrate_interarrival_us(const std::vector<ImagePair>& pool, int n,
                                 std::size_t workers) {
  constexpr int kCalibrationRounds = 3;
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.admission.interactive_capacity = static_cast<std::size_t>(n) + 1;
  cfg.admission.batch_capacity = static_cast<std::size_t>(n) + 1;
  std::vector<double> rounds_us;
  for (int round = 0; round <= kCalibrationRounds; ++round) {
    DiffService service(cfg, nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      ServiceRequest req;
      req.id = static_cast<std::uint64_t>(i);
      req.priority = Priority::kBatch;
      const ImagePair& p = pool[static_cast<std::size_t>(i) % pool.size()];
      req.reference = p.a;
      req.scan = p.b;
      req.keep_diff = false;
      req.options.engine = kLoadEngine;
      service.try_submit(std::move(req));
    }
    service.drain();
    const auto wall = std::chrono::steady_clock::now() - t0;
    if (round == 0) continue;  // the warm-up round
    rounds_us.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(wall).count()));
  }
  std::sort(rounds_us.begin(), rounds_us.end());
  return std::max(rounds_us[rounds_us.size() / 2] / static_cast<double>(n),
                  1.0);
}

/// Derives a phase's Poisson arrival-stream seed from (seed, phase index)
/// alone.  Worker count, shard/replica topology, and the backend seed never
/// enter: two phases handed the same (seed, phase) pair offer byte-identical
/// traffic, which is what makes cross-topology latency comparisons (phase 6:
/// healthy vs replica-down) honest.
std::uint64_t arrival_seed_for(std::uint64_t seed, std::uint64_t phase) {
  std::uint64_t z = seed ^ 0xa11ca75ull ^ (phase * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Open-loop arrival phase: `n` requests arrive as a seeded Poisson process
/// at `load` times the fleet capacity (mean inter-arrival
/// `base_interarrival_us / load`), 1-in-4 interactive.  Poisson arrivals
/// make the at-capacity phase see the same burst-driven queueing the
/// overload phase does, so the p99 comparison is cap-bound against
/// cap-bound rather than idle against saturated.  A `deadline_us` of 0
/// means no deadline.
PhaseOutcome run_phase(const std::vector<ImagePair>& pool, double load,
                       int n, double base_interarrival_us,
                       std::size_t workers, std::uint64_t deadline_us,
                       std::uint64_t arrival_seed) {
  ServiceConfig cfg;
  cfg.workers = workers;
  // Small bounds are the point: the queue may hold at most ~2 service times
  // of work per class, so admitted-request latency stays bounded and the
  // rest sheds as queue_full.
  cfg.admission.interactive_capacity = 2;
  cfg.admission.batch_capacity = 2 * workers;

  PhaseOutcome out;
  std::mutex mu;
  DiffService service(cfg, [&](ServiceResponse r) {
    std::lock_guard<std::mutex> lk(mu);
    ++out.responses;
    out.rows_processed += r.rows_processed;
    if (r.status == ServiceResponse::Status::kCompleted) {
      (r.priority == Priority::kInteractive ? out.interactive_us
                                            : out.batch_us)
          .add(r.total_us);
    }
  });

  const double mean_interarrival_us = base_interarrival_us / load;
  Rng arrival_rng(arrival_seed);
  double arrival_us = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    arrival_us +=
        -std::log(1.0 - arrival_rng.uniform01()) * mean_interarrival_us;
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(arrival_us)));
    ServiceRequest req;
    req.id = static_cast<std::uint64_t>(i);
    req.priority = i % 4 == 0 ? Priority::kInteractive : Priority::kBatch;
    if (deadline_us > 0)
      req.deadline = Deadline::after(std::chrono::microseconds(
          static_cast<std::int64_t>(deadline_us)));
    const ImagePair& p = pool[static_cast<std::size_t>(i) % pool.size()];
    req.reference = p.a;
    req.scan = p.b;
    req.keep_diff = false;
    req.options.engine = kLoadEngine;
    service.try_submit(std::move(req));
  }
  service.drain();
  out.stats = service.stats();
  return out;
}

/// What one ShardRouter phase produced: router accounting plus the client
/// view folded from the completion callback.
struct RouterPhaseOutcome {
  RouterStats stats;
  ServiceStats backend;
  std::size_t healthy_replicas = 0;  ///< after drain
  RunningStat interactive_us;
  RunningStat batch_us;
  std::uint64_t responses = 0;

  /// The router's zero-silent-drops identity, plus: the callback saw
  /// exactly one response per admitted request.
  bool accounted() const {
    return stats.accounted() && responses == stats.admitted;
  }
};

/// Open-loop arrival phase against a 2-shard x 2-replica ShardRouter
/// (1 worker per replica, so the 4-worker calibration still measures
/// capacity).  `hot_fraction` of requests carry an explicit route key pinned
/// to shard 0; the rest go to shard 1.  When `kill_at >= 0`, replica
/// (0, 0) — a hot-shard replica — is killed right before request `kill_at`
/// is offered and stays dead for the remainder of the phase.  When `flight`
/// is non-null it is installed as the process recorder for exactly the
/// lifetime of the router, so the ring afterwards holds this phase's events
/// and nothing else.
RouterPhaseOutcome run_router_phase(const std::vector<ImagePair>& pool,
                                    double load, int n,
                                    double base_interarrival_us,
                                    double hot_fraction, std::uint64_t seed,
                                    std::uint64_t arrival_seed,
                                    int kill_at,
                                    FlightRecorder* flight = nullptr) {
  RouterConfig cfg;
  cfg.shards = 2;
  cfg.replicas = 2;
  cfg.replica_service.workers = 1;
  cfg.replica_service.admission.interactive_capacity = 2;
  cfg.replica_service.admission.batch_capacity = 2;
  cfg.seed = seed;

  RouterPhaseOutcome out;
  std::mutex mu;
  if (flight) set_flight_recorder(flight);
  {
    ShardRouter router(cfg, [&](ServiceResponse r) {
      std::lock_guard<std::mutex> lk(mu);
      ++out.responses;
      if (r.status == ServiceResponse::Status::kCompleted) {
        (r.priority == Priority::kInteractive ? out.interactive_us
                                              : out.batch_us)
            .add(r.total_us);
      }
    });

    // Route keys pinned per shard, discovered through the router's own ring
    // so the skew survives any ring-layout change.  The hot/cold choice per
    // request comes from its own seeded stream — like the arrivals, a pure
    // function of (seed, phase).
    std::vector<std::uint64_t> hot_keys;
    std::vector<std::uint64_t> cold_keys;
    for (std::uint64_t k = 1; hot_keys.size() < 8 || cold_keys.size() < 8;
         ++k) {
      std::vector<std::uint64_t>& dst =
          router.shard_of(k) == 0 ? hot_keys : cold_keys;
      if (dst.size() < 8) dst.push_back(k);
    }
    Rng skew_rng(arrival_seed ^ 0x5ced5ull);

    const double mean_interarrival_us = base_interarrival_us / load;
    Rng arrival_rng(arrival_seed);
    double arrival_us = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      arrival_us +=
          -std::log(1.0 - arrival_rng.uniform01()) * mean_interarrival_us;
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(
                      static_cast<std::int64_t>(arrival_us)));
      if (i == kill_at) router.kill_replica(0, 0);
      ServiceRequest req;
      req.id = static_cast<std::uint64_t>(i);
      req.priority = i % 4 == 0 ? Priority::kInteractive : Priority::kBatch;
      const bool hot = skew_rng.uniform01() < hot_fraction;
      const std::vector<std::uint64_t>& keys = hot ? hot_keys : cold_keys;
      req.route_key = keys[static_cast<std::size_t>(i) % keys.size()];
      const ImagePair& p = pool[static_cast<std::size_t>(i) % pool.size()];
      req.reference = p.a;
      req.scan = p.b;
      req.keep_diff = false;
      req.options.engine = kLoadEngine;
      (void)router.try_submit(std::move(req));
    }
    router.drain();
    out.stats = router.stats();
    out.backend = router.backend_stats();
    out.healthy_replicas = router.healthy_replicas();
  }
  if (flight) set_flight_recorder(nullptr);
  return out;
}

/// Folds a flight-recorder snapshot into per-request timeline facts for the
/// reconstructability checks after the kill-a-replica phase.
struct FlightAudit {
  std::uint64_t requests_seen = 0;    ///< distinct client request ids
  std::uint64_t missing_terminal = 0; ///< ids with no respond/router shed
  std::uint64_t interesting = 0;      ///< failed-over/coalesced/shed
  std::uint64_t interesting_without_respond = 0;
};

FlightAudit audit_flight(const FlightRecorder& flight) {
  struct PerRequest {
    bool terminal = false;     ///< respond, or a router-level shed
    bool respond = false;
    bool interesting = false;  ///< failover/coalesce/shed touched it
    bool shed_only = false;    ///< shed was the terminal outcome
  };
  std::unordered_map<std::uint64_t, PerRequest> by_request;
  for (const FlightEvent& e : flight.snapshot()) {
    if (!e.ctx.active) continue;
    PerRequest& pr = by_request[e.ctx.request_id];
    switch (e.kind) {
      case FlightEventKind::kRespond:
        pr.terminal = true;
        pr.respond = true;
        break;
      case FlightEventKind::kShed:
        pr.interesting = true;
        // A router-level shed (no shard routed yet) is itself the terminal
        // client outcome; a backend shed feeds failover and the client
        // response arrives later as a respond event.
        if (e.ctx.shard < 0) {
          pr.terminal = true;
          pr.shed_only = true;
        }
        break;
      case FlightEventKind::kFailover:
      case FlightEventKind::kCoalesceJoined:
      case FlightEventKind::kCoalescePromoted:
        pr.interesting = true;
        break;
      default:
        break;
    }
  }
  FlightAudit audit;
  audit.requests_seen = by_request.size();
  for (const auto& [rid, pr] : by_request) {
    if (!pr.terminal) ++audit.missing_terminal;
    if (pr.interesting) {
      ++audit.interesting;
      if (!pr.respond && !pr.shed_only) ++audit.interesting_without_respond;
    }
  }
  return audit;
}

/// Breaker-trip topology: one shard of kBreakerReplicas replicas, each
/// quarantined after kBreakerThreshold consecutive failures.  With every
/// failure recorded before the next dispatch, at most their product of
/// requests can reach a replica.
constexpr std::size_t kBreakerReplicas = 2;
constexpr int kBreakerThreshold = 3;

/// Breaker-trip phase: a 1x2 ShardRouter over checked-engine replicas,
/// permanent stuck-comparator fault, fallback disabled, zero retries —
/// every dispatched request fails, so the router's per-replica breaker must
/// quarantine both replicas and later arrivals must shed as shard_down.
/// Each request is offered only after the previous admitted one has been
/// answered (bounded wait), because one faulted request can take longer
/// than any fixed pacing of the whole phase.
RouterPhaseOutcome run_breaker_phase(const std::vector<ImagePair>& pool,
                                     int n) {
  RouterConfig cfg;
  cfg.shards = 1;
  cfg.replicas = kBreakerReplicas;
  cfg.replica_service.workers = 1;
  cfg.replica_service.use_checked_engine = true;
  cfg.replica_service.recovery.max_retries = 0;
  cfg.replica_service.recovery.fallback_to_sequential = false;
  cfg.replica_breaker.failure_threshold = kBreakerThreshold;
  // Longer than the phase: once open, a breaker stays open to the end.
  cfg.replica_breaker.open_duration = 60'000'000;

  FaultSpec fault;
  fault.kind = FaultKind::kNoSwap;
  fault.activation = FaultActivation::kPermanent;
  fault.cell = 0;

  RouterPhaseOutcome out;
  std::mutex mu;
  std::condition_variable responded_cv;
  ShardRouter router(cfg, [&](ServiceResponse) {
    std::lock_guard<std::mutex> lk(mu);
    ++out.responses;
    responded_cv.notify_all();
  });
  std::uint64_t admitted = 0;
  for (int i = 0; i < n; ++i) {
    {
      // The router records each failure before the response is delivered,
      // so once every admitted request has answered, the breakers are
      // up to date.
      std::unique_lock<std::mutex> lk(mu);
      responded_cv.wait_for(lk, std::chrono::seconds(30), [&] {
        return out.responses == admitted;
      });
    }
    ServiceRequest req;
    req.id = static_cast<std::uint64_t>(i);
    req.priority = Priority::kBatch;
    req.fault = fault;
    const ImagePair& p = pool[static_cast<std::size_t>(i) % pool.size()];
    req.reference = p.a;
    req.scan = p.b;
    req.keep_diff = false;
    if (!router.try_submit(std::move(req))) ++admitted;
  }
  router.drain();
  out.stats = router.stats();
  out.backend = router.backend_stats();
  out.healthy_replicas = router.healthy_replicas();
  return out;
}

struct FarmComparison {
  FarmResult without_breaker;
  FarmResult with_breaker;
};

/// One permanently flaky machine in a 4-machine farm, with and without
/// per-machine breakers.
FarmComparison run_farm_phase(pos_t rows, pos_t width) {
  Rng rng(7);
  RowGenParams gp;
  gp.width = width;
  const RleImage a = generate_image(rng, rows, gp);
  RleImage b(width, rows);
  ErrorGenParams ep;
  ep.error_fraction = 0.05;
  for (pos_t y = 0; y < rows; ++y)
    b.set_row(y, inject_errors(rng, a.row(y), width, ep));

  FarmConfig cfg;
  cfg.machines = 4;
  cfg.flaky.push_back({.machine = 1, .failure_probability = 1.0});

  FarmComparison cmp;
  cmp.without_breaker = simulate_row_farm(a, b, cfg);
  cfg.enable_breakers = true;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_duration = 4096;
  cmp.with_breaker = simulate_row_farm(a, b, cfg);
  return cmp;
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
      std::cerr << "usage: bench_overload [--json FILE] [--smoke]\n";
      return 2;
    }
  }

  const pos_t kRows = smoke ? 24 : 64;
  const pos_t kWidth = smoke ? 1024 : 4096;
  const int kRequests = smoke ? 60 : 240;
  const std::size_t kWorkers = 4;
  const std::uint64_t kSeed = 42;

  const std::vector<ImagePair> pool =
      make_pool(8, kRows, kWidth, 0.03, kSeed);
  const double interarrival_us =
      calibrate_interarrival_us(pool, smoke ? 16 : 48, kWorkers);
  const double service_us =
      interarrival_us * static_cast<double>(kWorkers);
  std::cout << "calibrated capacity: one request per " << interarrival_us
            << " us of fleet time (" << kRows << " rows x " << kWidth
            << " px, " << kWorkers << " workers; ~" << service_us
            << " us per request)\n\n";

  // --- 1. load sweep ------------------------------------------------------
  const std::vector<double> loads = {0.5, 1.0, 2.0};
  std::vector<PhaseOutcome> phases;
  for (std::size_t i = 0; i < loads.size(); ++i)
    phases.push_back(run_phase(pool, loads[i], kRequests, interarrival_us,
                               kWorkers, /*deadline_us=*/0,
                               arrival_seed_for(kSeed, i)));

  FixedTable table;
  table.set_header({"load", "offered", "admitted", "shed", "completed",
                    "int-p99-us", "accounted"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const PhaseOutcome& p = phases[i];
    table.add_row({FixedTable::num(loads[i]), FixedTable::num(p.stats.offered),
                   FixedTable::num(p.stats.admitted),
                   FixedTable::num(p.stats.shed_total()),
                   FixedTable::num(p.stats.completed),
                   FixedTable::num(p.interactive_us.p99()),
                   p.accounted() ? "yes" : "NO"});
  }
  std::cout << "--- 1. load sweep ---\n" << table.str() << '\n';

  const PhaseOutcome& at_capacity = phases[1];
  const PhaseOutcome& overload = phases[2];
  const bool no_silent_drops =
      phases[0].accounted() && phases[1].accounted() && phases[2].accounted();
  const bool typed_shed_under_overload = overload.stats.shed_total() > 0;
  const double p99_1x = at_capacity.interactive_us.p99();
  const double p99_2x = overload.interactive_us.p99();
  const bool interactive_p99_bounded =
      p99_1x > 0.0 && p99_2x <= 2.0 * p99_1x;

  // --- 2. deadline storm --------------------------------------------------
  // Deadlines of ~1.5 service times at 2x load: many requests expire in the
  // queue or mid-image; none may keep burning engine cycles afterwards.
  const std::uint64_t storm_deadline_us =
      static_cast<std::uint64_t>(service_us * 1.5);
  const PhaseOutcome storm =
      run_phase(pool, 2.0, kRequests, interarrival_us, kWorkers,
                storm_deadline_us, arrival_seed_for(kSeed, 3));
  const std::uint64_t storm_deadline_sheds =
      storm.stats.shed_deadline_at_submit + storm.stats.shed_deadline_after_admit;
  const std::uint64_t storm_row_budget =
      storm.stats.admitted * static_cast<std::uint64_t>(kRows);
  std::cout << "--- 2. deadline storm (" << storm_deadline_us
            << " us deadlines at 2x load) ---\n"
            << "deadline sheds: " << storm_deadline_sheds
            << " (at submit " << storm.stats.shed_deadline_at_submit
            << ", after admit " << storm.stats.shed_deadline_after_admit
            << ")\nrows processed: " << storm.rows_processed << " of "
            << storm_row_budget << " admitted-row budget\n\n";
  const bool deadline_sheds_typed =
      storm.accounted() && storm_deadline_sheds > 0;
  // Expired requests stopped mid-image iff the fleet processed strictly
  // fewer rows than every admitted request running to completion.
  const bool deadline_stops_work =
      storm.stats.shed_deadline_after_admit == 0 ||
      storm.rows_processed < storm_row_budget;

  // --- 3. breaker trip ----------------------------------------------------
  const RouterPhaseOutcome breaker = run_breaker_phase(pool, smoke ? 16 : 32);
  const RouterStats& bst = breaker.stats;
  const ServiceStats& bbe = breaker.backend;
  std::cout << "--- 3. breaker trip (1x2 router, permanent fault, no "
               "fallback) ---\n"
            << "backend failed: " << bbe.failed << " of " << bbe.admitted
            << " admitted  shed shard_down: " << bst.shed_shard_down
            << " of " << bst.offered << " offered  healthy replicas: "
            << breaker.healthy_replicas << "\n\n";
  // Router accounting holds; the failures tripped the breakers; every later
  // arrival shed typed shard_down; everything that reached a replica
  // failed, and no more reached one than the quarantine thresholds allow.
  const bool breaker_opens_under_faults =
      breaker.accounted() && bbe.failed >= kBreakerThreshold &&
      bst.shed_shard_down > 0 &&
      bst.shed_shard_down == bst.offered - bst.admitted &&
      bbe.admitted == bbe.failed &&
      bbe.admitted <= kBreakerReplicas * kBreakerThreshold &&
      breaker.healthy_replicas == 0;

  // --- 4. farm relief -----------------------------------------------------
  const FarmComparison farm = run_farm_phase(smoke ? 32 : 96, kWidth);
  const FarmResult& fw = farm.without_breaker;
  const FarmResult& fb = farm.with_breaker;
  std::cout << "--- 4. farm relief (machine 1 permanently flaky) ---\n"
            << "without breakers: makespan " << fw.makespan
            << " faulty dispatches " << fw.faulty_dispatches
            << " wasted cycles " << fw.faulty_cycles << '\n'
            << "with breakers:    makespan " << fb.makespan
            << " faulty dispatches " << fb.faulty_dispatches
            << " wasted cycles " << fb.faulty_cycles << " (probes "
            << fb.probe_dispatches << ")\n\n";
  // Both runs complete the same useful rows on the same healthy machines
  // (re-dispatch excludes the flaky machine), so the breaker cannot cost
  // useful work — only tail packing. Quarantining machine 1 perturbs the
  // FIFO dispatch order (fewer burn/re-queue events shift row start times),
  // and list scheduling is not monotone under such perturbations, so the
  // makespan can drift either way by at most one row's service time: the
  // classic Graham list-scheduling anomaly. Measured at the fixed seed:
  // full size 1598 vs 1577 (+21 cycles, critical row 61), smoke 162 vs 167
  // (breakers win outright). The former 1.05x multiplicative slack (~79
  // cycles at full size) over-allowed; the additive one-critical-row bound
  // is both tighter and principled.
  const bool farm_breaker_relief =
      fb.faulty_cycles < fw.faulty_cycles &&
      fb.makespan <= fw.makespan + fb.critical_row &&
      fb.faulty_dispatches < fw.faulty_dispatches;

  // --- 5. hot shard -------------------------------------------------------
  // 70% of keys pinned to shard 0 at 2x load: the hot shard queues and
  // sheds, its replicas' breakers trip, and interactive work fails over
  // cross-shard — with every request still accounted for.
  const RouterPhaseOutcome hot =
      run_router_phase(pool, 2.0, kRequests, interarrival_us,
                       /*hot_fraction=*/0.7, kSeed,
                       arrival_seed_for(kSeed, 4), /*kill_at=*/-1);
  std::cout << "--- 5. hot shard (2x2 router, 70% keys on shard 0, 2x load) "
               "---\n"
            << "failovers: " << hot.stats.failovers << " (cross-shard "
            << hot.stats.cross_shard_failovers << ")  coalesced: "
            << hot.stats.coalesced << "  shed shard_down: "
            << hot.stats.shed_shard_down << '\n'
            << "accounted: " << (hot.accounted() ? "yes" : "NO") << "\n\n";

  // --- 6. kill a replica --------------------------------------------------
  // Same topology and the SAME arrival stream twice: once healthy, once with
  // hot-shard replica (0,0) killed an eighth of the way in.  Failover keeps
  // the killed run's interactive p99 within 2x of the healthy run's, and
  // the accounting identity shows the kill dropped nothing silently.
  const std::uint64_t kill_arrival_seed = arrival_seed_for(kSeed, 5);
  const RouterPhaseOutcome healthy =
      run_router_phase(pool, 0.5, kRequests, interarrival_us,
                       /*hot_fraction=*/0.5, kSeed, kill_arrival_seed,
                       /*kill_at=*/-1);
  // The killed run flies with the recorder installed; the ring is sized far
  // beyond the phase's event volume so nothing wraps and the audit below
  // sees every request's complete timeline.
  FlightRecorder flight(1 << 14);
  const RouterPhaseOutcome killed =
      run_router_phase(pool, 0.5, kRequests, interarrival_us,
                       /*hot_fraction=*/0.5, kSeed, kill_arrival_seed,
                       /*kill_at=*/kRequests / 8, &flight);
  const double p99_healthy = healthy.interactive_us.p99();
  const double p99_killed = killed.interactive_us.p99();
  const FlightAudit audit = audit_flight(flight);
  const std::vector<FlightRecorder::RetainedTimeline> retained =
      flight.retained();
  std::cout << "--- 6. kill a replica (replica 0.0 down from request "
            << kRequests / 8 << ") ---\n"
            << "healthy:      completed " << healthy.stats.completed
            << "  int-p99 " << p99_healthy << " us\n"
            << "replica down: completed " << killed.stats.completed
            << "  int-p99 " << p99_killed << " us  failovers "
            << killed.stats.failovers << "  rejected "
            << killed.stats.rejected << '\n'
            << "accounted: healthy " << (healthy.accounted() ? "yes" : "NO")
            << ", replica down " << (killed.accounted() ? "yes" : "NO")
            << '\n'
            << "flight: " << flight.recorded() << " events ("
            << flight.dropped() << " overwritten), " << audit.requests_seen
            << " request timelines (" << audit.interesting
            << " failed-over/coalesced/shed), " << retained.size()
            << " retained anomalies\n\n";
  const bool router_no_silent_drops =
      hot.accounted() && healthy.accounted() && killed.accounted();
  const bool replica_down_failover =
      killed.stats.failovers > 0 && killed.stats.completed > 0;
  const bool replica_down_p99_bounded =
      p99_healthy > 0.0 && p99_killed <= 2.0 * p99_healthy;
  // Reconstructability: the ring held everything (no wrap), every offered
  // request id shows up, every timeline reaches a terminal event, and every
  // request a failover/coalesce/shed touched has its client respond (or
  // router-level shed) on record.
  const bool flight_timelines_complete =
      flight.dropped() == 0 &&
      audit.requests_seen == killed.stats.offered &&
      audit.missing_terminal == 0 && audit.interesting_without_respond == 0;

  // --- 7. flight-recorder overhead ----------------------------------------
  // The same closed-loop workload as the capacity calibration, with and
  // without the recorder installed.  The instrumented run records the full
  // per-request event set, so this is the marginal cost of flying with the
  // recorder on.
  const int overhead_n = smoke ? 16 : 48;
  const double disabled_us_per_req =
      calibrate_interarrival_us(pool, overhead_n, kWorkers);
  FlightRecorder overhead_flight(1 << 12);
  set_flight_recorder(&overhead_flight);
  const double enabled_us_per_req =
      calibrate_interarrival_us(pool, overhead_n, kWorkers);
  set_flight_recorder(nullptr);
  const double overhead_ratio = enabled_us_per_req / disabled_us_per_req;
  std::cout << "--- 7. flight-recorder overhead (closed loop, " << overhead_n
            << " requests) ---\n"
            << "disabled: " << disabled_us_per_req
            << " us/request   enabled: " << enabled_us_per_req
            << " us/request (ratio " << overhead_ratio << ", "
            << overhead_flight.recorded() << " events recorded)\n\n";
  const bool flight_overhead_bounded = overhead_ratio <= 1.25;

  const bool all_ok = no_silent_drops && typed_shed_under_overload &&
                      interactive_p99_bounded && deadline_sheds_typed &&
                      deadline_stops_work && breaker_opens_under_faults &&
                      farm_breaker_relief && router_no_silent_drops &&
                      replica_down_failover && replica_down_p99_bounded &&
                      flight_timelines_complete && flight_overhead_bounded;
  std::cout << "verdict: "
            << (all_ok ? "overload contained (all checks pass)"
                       : "OVERLOAD GAP (see failed checks)")
            << '\n';

  if (!json_path.empty()) {
    BenchReport report("overload");
    report.set_param("rows", static_cast<std::int64_t>(kRows));
    report.set_param("width", static_cast<std::int64_t>(kWidth));
    report.set_param("requests", static_cast<std::int64_t>(kRequests));
    report.set_param("workers", static_cast<std::int64_t>(kWorkers));
    report.set_param("seed", static_cast<std::int64_t>(kSeed));
    report.set_param("smoke", smoke ? "true" : "false");
    report.set_x("load_factor", loads);
    auto series = [&](const char* name, auto&& get) {
      std::vector<double> v;
      for (const PhaseOutcome& p : phases)
        v.push_back(static_cast<double>(get(p)));
      report.add_series(name, std::move(v));
    };
    series("offered", [](const PhaseOutcome& p) { return p.stats.offered; });
    series("admitted", [](const PhaseOutcome& p) { return p.stats.admitted; });
    series("shed", [](const PhaseOutcome& p) { return p.stats.shed_total(); });
    series("completed",
           [](const PhaseOutcome& p) { return p.stats.completed; });
    series("interactive_p99_us",
           [](const PhaseOutcome& p) { return p.interactive_us.p99(); });
    report.set_scalar("service_time_us", service_us);
    report.set_scalar("p99_at_capacity_us", p99_1x);
    report.set_scalar("p99_at_overload_us", p99_2x);
    report.set_scalar("storm_deadline_sheds",
                      static_cast<double>(storm_deadline_sheds));
    report.set_scalar("breaker_shard_down_sheds",
                      static_cast<double>(bst.shed_shard_down));
    report.set_scalar("farm_faulty_cycles_without_breaker",
                      static_cast<double>(fw.faulty_cycles));
    report.set_scalar("farm_faulty_cycles_with_breaker",
                      static_cast<double>(fb.faulty_cycles));
    report.set_scalar("router_coalesced",
                      static_cast<double>(hot.stats.coalesced));
    report.set_scalar("router_failovers_replica_down",
                      static_cast<double>(killed.stats.failovers));
    report.set_scalar("p99_healthy_topology_us", p99_healthy);
    report.set_scalar("p99_replica_down_us", p99_killed);
    report.set_scalar("flight_events_recorded",
                      static_cast<double>(flight.recorded()));
    report.set_scalar("flight_events_dropped",
                      static_cast<double>(flight.dropped()));
    report.set_scalar("flight_timelines",
                      static_cast<double>(audit.requests_seen));
    report.set_scalar("flight_retained_anomalies",
                      static_cast<double>(retained.size()));
    report.set_scalar("flight_disabled_us_per_request", disabled_us_per_req);
    report.set_scalar("flight_enabled_us_per_request", enabled_us_per_req);
    report.set_scalar("flight_overhead_ratio", overhead_ratio);
    report.set_check("no_silent_drops", no_silent_drops);
    report.set_check("typed_shed_under_overload", typed_shed_under_overload);
    report.set_check("interactive_p99_bounded", interactive_p99_bounded);
    report.set_check("deadline_sheds_typed", deadline_sheds_typed);
    report.set_check("deadline_stops_work", deadline_stops_work);
    report.set_check("breaker_opens_under_faults", breaker_opens_under_faults);
    report.set_check("farm_breaker_relief", farm_breaker_relief);
    report.set_check("router_no_silent_drops", router_no_silent_drops);
    report.set_check("replica_down_failover", replica_down_failover);
    report.set_check("replica_down_p99_bounded", replica_down_p99_bounded);
    report.set_check("flight_timelines_complete", flight_timelines_complete);
    report.set_check("flight_overhead_bounded", flight_overhead_bounded);
    report.write_file(json_path);
  }
  return all_ok ? 0 : 1;
}
