// Tests for ShardRouter: routing, failover across killed replicas (and its
// retained flight timeline), quarantine on kFailed responses, in-flight
// dedup edge cases (waiter deadlines and keep_diff, promotion,
// bit-identical fan-out), the result cache, degraded mode, and the
// zero-silent-drops accounting identity.

#include "service/shard_router.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rle/ops.hpp"
#include "rle/serialize.hpp"
#include "store/image_store.hpp"
#include "store/result_cache.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

struct Workload {
  RleImage a{0, 0};
  RleImage b{0, 0};
};

Workload make_workload(std::uint64_t seed, pos_t rows = 8, pos_t width = 256) {
  Rng rng(seed);
  RowGenParams p;
  p.width = width;
  Workload w;
  w.a = generate_image(rng, rows, p);
  w.b = RleImage(width, rows);
  for (pos_t y = 0; y < rows; ++y) {
    ErrorGenParams ep;
    ep.error_fraction = 0.03;
    w.b.set_row(y, inject_errors(rng, w.a.row(y), width, ep));
  }
  return w;
}

ServiceRequest make_request(const Workload& w, std::uint64_t id,
                            Priority priority = Priority::kBatch) {
  ServiceRequest req;
  req.id = id;
  req.priority = priority;
  req.reference = w.a;
  req.scan = w.b;
  return req;
}

void expect_correct_diff(const ServiceResponse& r, const Workload& w) {
  ASSERT_EQ(r.diff.height(), w.a.height());
  for (pos_t y = 0; y < w.a.height(); ++y)
    EXPECT_EQ(r.diff.row(y), xor_rows(w.a.row(y), w.b.row(y)).canonical())
        << "row " << y;
}

class Collector {
 public:
  /// Blocks (bounded) until `n` responses have been delivered — used before
  /// drain() in tests whose asynchronous machinery (waiter promotion) must
  /// run against a live router, not a draining one.
  void wait_for(std::size_t n) const {
    for (int i = 0; i < 5000; ++i) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (responses_.size() >= n) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "timed out waiting for " << n << " responses";
  }

  ShardRouter::Completion callback() {
    return [this](ServiceResponse r) {
      std::lock_guard<std::mutex> lk(mu_);
      by_id_.emplace(r.id, r);
      responses_.push_back(std::move(r));
    };
  }
  std::vector<ServiceResponse> responses() const {
    std::lock_guard<std::mutex> lk(mu_);
    return responses_;
  }
  /// The one response delivered for request `id` (fails the test if the
  /// router delivered zero or several — the accounting contract).
  ServiceResponse only(std::uint64_t id) const {
    std::lock_guard<std::mutex> lk(mu_);
    EXPECT_EQ(by_id_.count(id), 1u) << "request " << id;
    auto it = by_id_.find(id);
    return it == by_id_.end() ? ServiceResponse{} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::vector<ServiceResponse> responses_;
  std::multimap<std::uint64_t, ServiceResponse> by_id_;
};

RouterConfig small_router(std::size_t shards, std::size_t replicas) {
  RouterConfig cfg;
  cfg.shards = shards;
  cfg.replicas = replicas;
  cfg.replica_service.workers = 1;
  return cfg;
}

/// A batch request whose engine blocks every row until `release` flips —
/// pins one replica's worker so later submissions are deterministically
/// in flight (engine overrides never share a computation, so the plug
/// cannot interfere with the dedup under test).
ServiceRequest make_plug(const Workload& w, std::uint64_t id,
                         std::atomic<bool>& release) {
  ServiceRequest plug = make_request(w, id);
  plug.engine_override = [&release](const RleRow& a, const RleRow& b,
                                    SystolicCounters&) {
    while (!release.load()) std::this_thread::yield();
    return xor_rows(a, b);
  };
  return plug;
}

TEST(ShardRouter, RoutesCompletesAndAccountsAcrossShards) {
  Collector collector;
  ShardRouter router(small_router(3, 2), collector.callback());
  std::vector<Workload> pool;
  for (std::uint64_t i = 0; i < 12; ++i) {
    pool.push_back(make_workload(100 + i));
    ASSERT_FALSE(router.try_submit(make_request(pool.back(), i)).has_value());
  }
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.offered, 12u);
  EXPECT_EQ(st.admitted, 12u);
  EXPECT_EQ(st.completed, 12u);
  EXPECT_TRUE(st.accounted());
  for (std::uint64_t i = 0; i < 12; ++i) {
    const ServiceResponse r = collector.only(i);
    EXPECT_EQ(r.status, ServiceResponse::Status::kCompleted);
    expect_correct_diff(r, pool[i]);
  }
}

TEST(ShardRouter, RouteKeyOverrideAndContentKeysAreStable) {
  const Workload w = make_workload(1);
  ServiceRequest req = make_request(w, 1);
  const std::uint64_t content_key = ShardRouter::route_key_of(req);
  EXPECT_EQ(content_key, ShardRouter::route_key_of(req));
  EXPECT_NE(content_key, 0u);

  req.route_key = 77;
  EXPECT_EQ(ShardRouter::route_key_of(req), 77u);

  Collector collector;
  ShardRouter router(small_router(4, 1), collector.callback());
  EXPECT_EQ(router.shard_of(77), router.shard_of(77));
  EXPECT_LT(router.shard_of(77), 4u);
  router.drain();
}

TEST(ShardRouter, ShedsTypedAtSubmitWhenDrainingOrExpired) {
  Collector collector;
  ShardRouter router(small_router(1, 1), collector.callback());
  const Workload w = make_workload(2);

  ServiceRequest expired = make_request(w, 1);
  expired.deadline = Deadline::after(std::chrono::microseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto reason = router.try_submit(std::move(expired));
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, RejectReason::kDeadlineExpired);

  router.drain();
  reason = router.try_submit(make_request(w, 2));
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, RejectReason::kShutdown);

  const RouterStats st = router.stats();
  EXPECT_EQ(st.offered, 2u);
  EXPECT_EQ(st.shed_deadline_at_submit, 1u);
  EXPECT_EQ(st.shed_shutdown, 1u);
  EXPECT_TRUE(st.accounted());
  EXPECT_TRUE(collector.responses().empty());
}

TEST(ShardRouter, CoalescedWaiterGetsBitIdenticalResponse) {
  Collector collector;
  ShardRouter router(small_router(1, 1), collector.callback());
  const Workload plug_w = make_workload(10);
  const Workload w = make_workload(11);

  std::atomic<bool> release{false};
  ASSERT_FALSE(router.try_submit(make_plug(plug_w, 1, release)).has_value());
  ASSERT_FALSE(router.try_submit(make_request(w, 100)).has_value());
  ASSERT_FALSE(router.try_submit(make_request(w, 101)).has_value());
  release.store(true);
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.coalesced, 1u);
  EXPECT_TRUE(st.accounted());

  const ServiceResponse primary = collector.only(100);
  const ServiceResponse waiter = collector.only(101);
  EXPECT_EQ(primary.status, ServiceResponse::Status::kCompleted);
  EXPECT_EQ(waiter.status, ServiceResponse::Status::kCompleted);
  // Bit-identical: the waiter received a copy of the primary's diff, and
  // both equal the uncoalesced ground truth.
  EXPECT_EQ(primary.diff, waiter.diff);
  expect_correct_diff(primary, w);
  expect_correct_diff(waiter, w);
}

TEST(ShardRouter, WaiterWithShorterDeadlineShedsTypedWhilePrimaryCompletes) {
  Collector collector;
  ShardRouter router(small_router(1, 1), collector.callback());
  const Workload plug_w = make_workload(12);
  const Workload w = make_workload(13);

  std::atomic<bool> release{false};
  ASSERT_FALSE(router.try_submit(make_plug(plug_w, 1, release)).has_value());
  ASSERT_FALSE(router.try_submit(make_request(w, 100)).has_value());
  ServiceRequest short_lived = make_request(w, 101);
  short_lived.deadline = Deadline::after(std::chrono::milliseconds(1));
  ASSERT_FALSE(router.try_submit(std::move(short_lived)).has_value());
  // Let the waiter's deadline lapse while the plug still pins the worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true);
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.coalesced, 1u);
  EXPECT_EQ(st.waiter_deadline_sheds, 1u);
  EXPECT_TRUE(st.accounted());

  EXPECT_EQ(collector.only(100).status, ServiceResponse::Status::kCompleted);
  const ServiceResponse waiter = collector.only(101);
  EXPECT_EQ(waiter.status, ServiceResponse::Status::kRejected);
  EXPECT_EQ(waiter.reject_reason, RejectReason::kDeadlineExpired);
}

TEST(ShardRouter, ExpiredPrimaryPromotesLiveWaiterToNewPrimary) {
  Collector collector;
  ShardRouter router(small_router(1, 1), collector.callback());
  const Workload plug_w = make_workload(14);
  const Workload w = make_workload(15);

  std::atomic<bool> release{false};
  ASSERT_FALSE(router.try_submit(make_plug(plug_w, 1, release)).has_value());
  ServiceRequest doomed = make_request(w, 100);
  doomed.deadline = Deadline::after(std::chrono::milliseconds(1));
  ASSERT_FALSE(router.try_submit(std::move(doomed)).has_value());
  ASSERT_FALSE(router.try_submit(make_request(w, 101)).has_value());
  // The primary's deadline lapses in the queue behind the plug; the waiter
  // has none and must inherit the computation.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true);
  // The promotion re-dispatch must land in a live backend, not a draining
  // one: wait for all three outcomes (plug, doomed primary, promoted
  // waiter) before tearing down.
  collector.wait_for(3);
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.coalesced, 1u);
  EXPECT_EQ(st.coalesce_promotions, 1u);
  EXPECT_TRUE(st.accounted());

  const ServiceResponse doomed_r = collector.only(100);
  EXPECT_EQ(doomed_r.status, ServiceResponse::Status::kRejected);
  EXPECT_EQ(doomed_r.reject_reason, RejectReason::kDeadlineExpired);
  const ServiceResponse promoted = collector.only(101);
  EXPECT_EQ(promoted.status, ServiceResponse::Status::kCompleted);
  expect_correct_diff(promoted, w);
}

TEST(ShardRouter, FailsOverAcrossReplicasWhenOneIsKilled) {
  Collector collector;
  RouterConfig cfg = small_router(1, 2);
  ShardRouter router(cfg, collector.callback());
  router.kill_replica(0, 0);

  for (std::uint64_t i = 0; i < 8; ++i) {
    const Workload w = make_workload(200 + i);
    ASSERT_FALSE(router.try_submit(make_request(w, i)).has_value())
        << "request " << i << " should fail over, not shed";
  }
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_GT(st.failovers, 0u);
  EXPECT_TRUE(st.accounted());
  // The killed replica kept shedding until its router breaker quarantined it.
  EXPECT_EQ(router.replica_breaker_state(0, 0), BreakerState::kOpen);
  EXPECT_EQ(router.healthy_replicas(), 1u);
}

TEST(ShardRouter, ProbeReadmitsARevivedReplica) {
  Collector collector;
  RouterConfig cfg = small_router(1, 2);
  cfg.replica_breaker.open_duration = 20000;  // 20 ms quarantine
  ShardRouter router(cfg, collector.callback());
  router.kill_replica(0, 0);

  for (std::uint64_t i = 0; i < 8; ++i)
    ASSERT_FALSE(
        router.try_submit(make_request(make_workload(300 + i), i)).has_value());
  ASSERT_EQ(router.replica_breaker_state(0, 0), BreakerState::kOpen);

  // Backend counters are monotonic: the killed service's sheds stay in the
  // totals after revive swaps in a fresh DiffService.
  const ServiceStats before_revive = router.backend_stats();
  ASSERT_GT(before_revive.shed_shutdown, 0u);
  router.revive_replica(0, 0);
  const ServiceStats after_revive = router.backend_stats();
  EXPECT_GE(after_revive.offered, before_revive.offered);
  EXPECT_GE(after_revive.shed_shutdown, before_revive.shed_shutdown);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  // Fresh traffic: keys preferring replica 0 probe it half-open; the
  // revived backend completes the probe and the breaker closes.
  for (std::uint64_t i = 8; i < 24; ++i)
    ASSERT_FALSE(
        router.try_submit(make_request(make_workload(300 + i), i)).has_value());
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.completed, 24u);
  EXPECT_TRUE(st.accounted());
  EXPECT_EQ(router.replica_breaker_state(0, 0), BreakerState::kClosed);
  EXPECT_EQ(router.healthy_replicas(), 2u);
  const ServiceStats end = router.backend_stats();
  EXPECT_GE(end.offered, after_revive.offered);
  EXPECT_EQ(end.offered, end.admitted + end.shed_total() -
                             end.shed_deadline_after_admit);
}

// The router's kFailed path, the serving path's only breaker: with the
// checked engine, a permanent fault, no retries and no fallback, every
// response is kFailed.  Those failures alone quarantine both replicas,
// later batch arrivals shed typed shard_down without reaching a backend,
// and each trip is on the flight record as replica_failed.
TEST(ShardRouter, FailedResponsesQuarantineEveryReplica) {
  FlightRecorder flight(1 << 12);
  set_flight_recorder(&flight);

  Collector collector;
  RouterConfig cfg = small_router(1, 2);
  cfg.replica_service.use_checked_engine = true;
  cfg.replica_service.recovery.max_retries = 0;
  cfg.replica_service.recovery.fallback_to_sequential = false;
  cfg.replica_breaker.open_duration = 60'000'000;  // stays open to the end
  FaultSpec fault;
  fault.kind = FaultKind::kNoSwap;
  fault.activation = FaultActivation::kPermanent;
  fault.cell = 0;

  const std::uint64_t kRequests = 16;
  std::uint64_t admitted = 0;
  std::uint64_t shard_down = 0;
  ServiceStats backend;
  {
    ShardRouter router(cfg, collector.callback());
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      ServiceRequest req = make_request(make_workload(400 + i, 24, 1024), i);
      req.fault = fault;
      const auto refused = router.try_submit(std::move(req));
      if (refused) {
        EXPECT_EQ(*refused, RejectReason::kShardDown) << "request " << i;
        ++shard_down;
      } else {
        // One request at a time: each failure is on the breaker's books
        // before the next dispatch.
        collector.wait_for(++admitted);
      }
    }
    router.drain();

    EXPECT_EQ(router.replica_breaker_state(0, 0), BreakerState::kOpen);
    EXPECT_EQ(router.replica_breaker_state(0, 1), BreakerState::kOpen);
    EXPECT_EQ(router.healthy_replicas(), 0u);
    const RouterStats st = router.stats();
    EXPECT_TRUE(st.accounted());
    EXPECT_EQ(st.failed, admitted);
    EXPECT_EQ(st.shed_shard_down, shard_down);
    backend = router.backend_stats();
  }
  set_flight_recorder(nullptr);

  // Every dispatch failed and quarantine stopped the traffic at the
  // breaker threshold of each replica.
  const auto threshold =
      static_cast<std::uint64_t>(cfg.replica_breaker.failure_threshold);
  EXPECT_EQ(backend.admitted, backend.failed);
  EXPECT_EQ(backend.failed, admitted);
  EXPECT_EQ(admitted, 2 * threshold);
  EXPECT_EQ(shard_down, kRequests - admitted);
  for (const ServiceResponse& r : collector.responses())
    EXPECT_EQ(r.status, ServiceResponse::Status::kFailed) << r.id;

  int replica_failed_trips = 0;
  for (const FlightEvent& e : flight.snapshot())
    if (e.kind == FlightEventKind::kBreakerTrip &&
        std::string(e.detail) == "replica_failed")
      ++replica_failed_trips;
  EXPECT_EQ(replica_failed_trips, 2);
}

TEST(ShardRouter, DegradedModeShedsBatchTypedAndFailsOverInteractive) {
  Collector collector;
  ShardRouter router(small_router(2, 1), collector.callback());

  // A key homed on each shard, via the public ring lookup.
  std::uint64_t dead_key = 0;
  for (std::uint64_t k = 1; dead_key == 0; ++k)
    if (router.shard_of(k) == 0) dead_key = k;
  router.kill_replica(0, 0);

  const Workload w = make_workload(20);
  ServiceRequest batch = make_request(w, 1);
  batch.route_key = dead_key;
  const auto reason = router.try_submit(std::move(batch));
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, RejectReason::kShardDown);

  ServiceRequest interactive = make_request(w, 2, Priority::kInteractive);
  interactive.route_key = dead_key;
  ASSERT_FALSE(router.try_submit(std::move(interactive)).has_value());
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.shed_shard_down, 1u);
  EXPECT_GE(st.cross_shard_failovers, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_TRUE(st.accounted());

  const ServiceResponse r = collector.only(2);
  EXPECT_EQ(r.status, ServiceResponse::Status::kCompleted);
  expect_correct_diff(r, w);
}

TEST(ShardRouter, FailoverLeavesARetainedFlightTimeline) {
  // End-to-end flight-recorder integration: a killed replica sheds every
  // submission until the router's breaker quarantines it.  The request
  // whose shed trips the breaker must reconstruct from the ring under its
  // client id — the shed attempt, the failover dispatch that landed, and
  // the client respond — and its timeline must be anomaly-retained.
  FlightRecorder flight(1 << 10);
  set_flight_recorder(&flight);

  Collector collector;
  {
    ShardRouter router(small_router(1, 2), collector.callback());
    router.kill_replica(0, 0);
    for (std::uint64_t i = 0; i < 8; ++i)
      ASSERT_FALSE(router.try_submit(make_request(make_workload(200 + i), i))
                       .has_value());
    router.drain();

    const RouterStats st = router.stats();
    ASSERT_GE(st.failovers, 3u);
    EXPECT_EQ(st.completed, 8u);
    EXPECT_TRUE(st.accounted());
    ASSERT_EQ(router.replica_breaker_state(0, 0), BreakerState::kOpen);
  }
  set_flight_recorder(nullptr);

  // The breaker trip was retained under the id of the request that tripped
  // it.  Its first anomaly — and so its label — is the killed replica's
  // shed; the trip re-retains the longer view.
  std::uint64_t tripped = UINT64_MAX;
  for (const FlightRecorder::RetainedTimeline& t : flight.retained())
    for (const FlightEvent& e : t.events)
      if (e.kind == FlightEventKind::kBreakerTrip) tripped = t.request_id;
  ASSERT_NE(tripped, UINT64_MAX) << "no retained breaker_trip timeline";

  int dispatches_seen = 0;
  bool trip = false, failover = false, responded = false;
  for (const FlightEvent& e : flight.timeline(tripped)) {
    switch (e.kind) {
      case FlightEventKind::kBreakerTrip:
        trip = true;
        EXPECT_EQ(e.ctx.replica, 0) << "the killed replica tripped";
        break;
      case FlightEventKind::kDispatch:
        ++dispatches_seen;
        break;
      case FlightEventKind::kFailover:
        failover = true;
        EXPECT_GE(e.ctx.attempt, 1u) << "the shed attempt was ordinal 0";
        EXPECT_EQ(e.ctx.replica, 1);
        break;
      case FlightEventKind::kRespond:
        // The client-visible delivery is the unrouted respond.
        if (e.ctx.shard < 0) {
          responded = true;
          EXPECT_STREQ(e.detail, "completed");
        }
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(trip);
  EXPECT_TRUE(failover);
  EXPECT_TRUE(responded);
  EXPECT_EQ(dispatches_seen, 1) << "one backend dispatch per call";
}

TEST(ShardRouter, MixedBurstWithEverythingEnabledStaysAccounted) {
  Collector collector;
  ShardRouter router(small_router(2, 2), collector.callback());

  // A small pool of pairs (duplicates force coalescing), mixed priorities,
  // some tight deadlines, and a mid-burst replica kill.
  std::vector<Workload> pool;
  for (std::uint64_t i = 0; i < 4; ++i) pool.push_back(make_workload(400 + i));
  std::uint64_t offered = 0, shed = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    if (i == 20) router.kill_replica(0, 0);
    ServiceRequest req = make_request(
        pool[i % pool.size()], i,
        i % 3 == 0 ? Priority::kInteractive : Priority::kBatch);
    if (i % 7 == 0) req.deadline = Deadline::after_ms(5);
    ++offered;
    if (router.try_submit(std::move(req)).has_value()) ++shed;
  }
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.offered, offered);
  EXPECT_EQ(st.shed_submit_total(), shed);
  EXPECT_TRUE(st.accounted())
      << "offered=" << st.offered << " admitted=" << st.admitted
      << " responses=" << st.responses() << " sheds=" << st.shed_submit_total();
  EXPECT_EQ(collector.responses().size(), st.responses());

  // Backend-level accounting survives too: every backend admission got a
  // backend response (completed, failed, or typed rejection), and each
  // dispatched call — an admission that did not join another (this router
  // has no cache to hit), or a promoted waiter — is exactly one backend
  // admission.
  const ServiceStats bs = router.backend_stats();
  EXPECT_EQ(bs.responses(), bs.admitted);
  EXPECT_EQ(bs.cancelled, 0u);
  EXPECT_EQ(bs.admitted, st.admitted - st.coalesced + st.coalesce_promotions);
}

// ------------------------------------------------------------- by handle

RouterConfig store_router(std::shared_ptr<ImageStore>& store,
                          std::shared_ptr<ResultCache>& cache) {
  store = std::make_shared<ImageStore>();
  cache = std::make_shared<ResultCache>();
  RouterConfig cfg = small_router(2, 1);
  cfg.store = store;
  cfg.cache = cache;
  return cfg;
}

TEST(ShardRouter, ByHandleRequestResolvesPinsAndCompletes) {
  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  Collector collector;
  const Workload w = make_workload(600);
  ShardRouter router(store_router(store, cache), collector.callback());
  ServiceRequest req;
  req.id = 0;
  req.ref_handle = store->register_image(w.a).handle;
  req.scan_handle = store->register_image(w.b).handle;
  req.keep_diff = true;
  ASSERT_FALSE(router.try_submit(std::move(req)).has_value());
  router.drain();

  const ServiceResponse r = collector.only(0);
  ASSERT_EQ(r.status, ServiceResponse::Status::kCompleted);
  EXPECT_FALSE(r.from_cache);
  expect_correct_diff(r, w);
  EXPECT_TRUE(router.stats().accounted());
}

// The route key is derived from the result-table key's fingerprint pair, so
// each by-value operand is hashed once per submit.  By-value operands hash
// with canonical_fingerprint — the store handle's hash — so a by-value and
// a by-handle request for the same pair share one key and one shard.  Shard
// placement must be exactly what the direct formula gives,
// mix64(fp_a ^ mix64(fp_b)), both through route_key_of and on the dispatch
// try_submit actually makes (a request that joined its twin in flight makes
// no dispatch of its own).
TEST(ShardRouter, ShardAssignmentIsUnchangedForByValueAndByHandleRequests) {
  const auto mix64 = [](std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  const auto pair_key = [&](std::uint64_t fa, std::uint64_t fb) {
    return mix64(fa ^ mix64(fb));
  };

  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  RouterConfig cfg = store_router(store, cache);
  cfg.shards = 4;
  FlightRecorder flight(1 << 12);
  set_flight_recorder(&flight);
  Collector collector;
  ShardRouter router(cfg, collector.callback());

  std::map<std::uint64_t, std::size_t> expected_shard;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Workload w = make_workload(700 + i);
    ServiceRequest by_value = make_request(w, 2 * i);
    const std::uint64_t value_key =
        pair_key(canonical_fingerprint(w.a), canonical_fingerprint(w.b));
    EXPECT_EQ(ShardRouter::route_key_of(by_value), value_key);
    expected_shard[2 * i] = router.shard_of(value_key);

    ServiceRequest by_handle;
    by_handle.id = 2 * i + 1;
    by_handle.ref_handle = store->register_image(w.a).handle;
    by_handle.scan_handle = store->register_image(w.b).handle;
    const std::uint64_t handle_key =
        pair_key(by_handle.ref_handle, by_handle.scan_handle);
    EXPECT_EQ(ShardRouter::route_key_of(by_handle), handle_key);
    EXPECT_EQ(handle_key, value_key);  // one key space
    expected_shard[2 * i + 1] = router.shard_of(handle_key);

    ASSERT_FALSE(router.try_submit(std::move(by_value)).has_value());
    ASSERT_FALSE(router.try_submit(std::move(by_handle)).has_value());
  }
  router.drain();
  set_flight_recorder(nullptr);

  for (const auto& [id, shard] : expected_shard) {
    int dispatches = 0;
    int joins = 0;
    for (const FlightEvent& e : flight.timeline(id)) {
      if (e.kind == FlightEventKind::kCoalesceJoined) ++joins;
      if (e.kind != FlightEventKind::kDispatch) continue;
      ++dispatches;
      EXPECT_EQ(e.ctx.shard, static_cast<int>(shard)) << "request " << id;
    }
    EXPECT_EQ(dispatches + joins, 1) << "request " << id;
  }
  for (std::uint64_t id = 0; id < 16; ++id)
    expect_correct_diff(collector.only(id), make_workload(700 + id / 2));
}

// keep_diff is not part of the dedup key: a waiter that asked for the diff
// must get it even when the primary it joined did not, and a primary that
// did not ask must not be handed one.
TEST(ShardRouter, WaiterKeepsItsDiffWhenThePrimaryDropsIt) {
  Collector collector;
  ShardRouter router(small_router(1, 1), collector.callback());
  const Workload plug_w = make_workload(16);
  const Workload w = make_workload(17);

  std::atomic<bool> release{false};
  ASSERT_FALSE(router.try_submit(make_plug(plug_w, 1, release)).has_value());
  ServiceRequest primary = make_request(w, 100);
  primary.keep_diff = false;
  ASSERT_FALSE(router.try_submit(std::move(primary)).has_value());
  ServiceRequest waiter = make_request(w, 101);
  waiter.keep_diff = true;
  ASSERT_FALSE(router.try_submit(std::move(waiter)).has_value());
  release.store(true);
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.coalesced, 1u);
  EXPECT_TRUE(st.accounted());
  EXPECT_EQ(router.backend_stats().engine_invocations, 2u);  // plug + primary

  const ServiceResponse p = collector.only(100);
  ASSERT_EQ(p.status, ServiceResponse::Status::kCompleted);
  EXPECT_EQ(p.diff, RleImage(0, 0));
  const ServiceResponse r = collector.only(101);
  ASSERT_EQ(r.status, ServiceResponse::Status::kCompleted);
  expect_correct_diff(r, w);
}

// A promoted waiter inherits the pending entry in place, including its
// cache eligibility: its completion is stored, and the next identical
// by-handle request is a cache hit.
TEST(ShardRouter, PromotedWaiterCompletionIsCached) {
  auto store = std::make_shared<ImageStore>();
  auto cache = std::make_shared<ResultCache>();
  RouterConfig cfg = small_router(1, 1);
  cfg.store = store;
  cfg.cache = cache;
  Collector collector;
  ShardRouter router(cfg, collector.callback());
  const Workload plug_w = make_workload(18);
  const Workload w = make_workload(19);
  const ImageHandle ha = store->register_image(w.a).handle;
  const ImageHandle hb = store->register_image(w.b).handle;
  auto by_handle = [&](std::uint64_t id) {
    ServiceRequest req;
    req.id = id;
    req.ref_handle = ha;
    req.scan_handle = hb;
    return req;
  };

  std::atomic<bool> release{false};
  ASSERT_FALSE(router.try_submit(make_plug(plug_w, 1, release)).has_value());
  ServiceRequest doomed = by_handle(100);
  doomed.deadline = Deadline::after(std::chrono::milliseconds(1));
  ASSERT_FALSE(router.try_submit(std::move(doomed)).has_value());
  ASSERT_FALSE(router.try_submit(by_handle(101)).has_value());
  // The primary's deadline lapses behind the plug; the waiter is promoted.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true);
  collector.wait_for(3);
  ASSERT_FALSE(router.try_submit(by_handle(102)).has_value());
  collector.wait_for(4);
  router.drain();

  EXPECT_EQ(collector.only(100).status, ServiceResponse::Status::kRejected);
  const ServiceResponse promoted = collector.only(101);
  ASSERT_EQ(promoted.status, ServiceResponse::Status::kCompleted);
  EXPECT_FALSE(promoted.from_cache);
  const ServiceResponse third = collector.only(102);
  ASSERT_EQ(third.status, ServiceResponse::Status::kCompleted);
  EXPECT_TRUE(third.from_cache);
  EXPECT_EQ(third.diff, promoted.diff);
  expect_correct_diff(third, w);

  const RouterStats st = router.stats();
  EXPECT_EQ(st.coalesce_promotions, 1u);
  EXPECT_TRUE(st.accounted());
  const CacheStats cs = cache->stats();
  EXPECT_EQ(cs.insertions, 1u);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_TRUE(cs.accounted());
}

// The tentpole's acceptance bar: the second identical by-handle diff is
// served from the result cache — bit-identical payload, no second engine
// invocation (asserted via the backend's engine-invocation counter).
TEST(ShardRouter, SecondIdenticalByHandleDiffIsServedFromCache) {
  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  Collector collector;
  const Workload w = make_workload(601);
  ShardRouter router(store_router(store, cache), collector.callback());
  const ImageHandle ha = store->register_image(w.a).handle;
  const ImageHandle hb = store->register_image(w.b).handle;

  auto by_handle = [&](std::uint64_t id) {
    ServiceRequest req;
    req.id = id;
    req.ref_handle = ha;
    req.scan_handle = hb;
    req.keep_diff = true;
    return req;
  };
  ASSERT_FALSE(router.try_submit(by_handle(0)).has_value());
  collector.wait_for(1);  // sequential, so the repeat cannot coalesce
  ASSERT_FALSE(router.try_submit(by_handle(1)).has_value());
  collector.wait_for(2);
  router.drain();

  const ServiceResponse first = collector.only(0);
  const ServiceResponse second = collector.only(1);
  ASSERT_EQ(first.status, ServiceResponse::Status::kCompleted);
  ASSERT_EQ(second.status, ServiceResponse::Status::kCompleted);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.diff, first.diff);  // bit-identical payload
  expect_correct_diff(second, w);

  EXPECT_TRUE(router.stats().accounted());
  const CacheStats cs = cache->stats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.insertions, 1u);
  EXPECT_TRUE(cs.accounted());
  // The engine ran once; the cache served the repeat without re-running it.
  EXPECT_EQ(router.backend_stats().engine_invocations, 1u);
}

TEST(ShardRouter, UnknownHandleIsATypedShed) {
  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  Collector collector;
  const Workload w = make_workload(602);
  ShardRouter router(store_router(store, cache), collector.callback());
  ServiceRequest req;
  req.id = 0;
  req.ref_handle = store->register_image(w.a).handle;
  req.scan_handle = 0xdeadbeef;  // never registered
  const std::optional<RejectReason> shed = router.try_submit(std::move(req));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(*shed, RejectReason::kUnknownHandle);
  router.drain();

  const RouterStats st = router.stats();
  EXPECT_EQ(st.shed_unknown_handle, 1u);
  EXPECT_TRUE(st.accounted());  // the shed is inside the identity
  EXPECT_TRUE(collector.responses().empty());
}

// A pinned request survives its operands being evicted mid-flight: the pin
// taken at submit keeps the image alive and blocks eviction of its entry
// until the response is delivered.
TEST(ShardRouter, ByHandleDiffSurvivesConcurrentStoreChurn) {
  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  Collector collector;
  const Workload w = make_workload(603, 16, 512);
  StoreConfig tight;
  tight.capacity_bytes = 3 * canonical_rle_bytes(w.a).size();
  store = std::make_shared<ImageStore>(tight);
  cache = std::make_shared<ResultCache>();
  RouterConfig cfg = small_router(1, 1);
  cfg.store = store;
  cfg.cache = cache;
  ShardRouter router(cfg, collector.callback());
  const ImageHandle ha = store->register_image(w.a).handle;
  const ImageHandle hb = store->register_image(w.b).handle;

  ServiceRequest req;
  req.id = 0;
  req.ref_handle = ha;
  req.scan_handle = hb;
  req.keep_diff = true;
  ASSERT_FALSE(router.try_submit(std::move(req)).has_value());
  // Churn the store while the diff is in flight; the pinned operands must
  // not be evicted out from under the engine.
  for (std::uint64_t i = 0; i < 20; ++i) {
    Rng rng(700 + i);
    RowGenParams p;
    p.width = 512;
    (void)store->register_image(generate_image(rng, 16, p));
  }
  router.drain();

  const ServiceResponse r = collector.only(0);
  ASSERT_EQ(r.status, ServiceResponse::Status::kCompleted);
  expect_correct_diff(r, w);
  EXPECT_TRUE(store->stats().accounted());
}

// The one dimension check runs before the request is offered: a by-handle
// pair of different sizes is refused without leaving a request that was
// offered but neither admitted nor shed.
TEST(ShardRouter, MismatchedHandleDimensionsLeaveStatsAccounted) {
  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  Collector collector;
  ShardRouter router(store_router(store, cache), collector.callback());
  ServiceRequest req;
  req.id = 0;
  req.ref_handle = store->register_image(RleImage(16, 2)).handle;
  req.scan_handle = store->register_image(RleImage(32, 2)).handle;
  EXPECT_THROW((void)router.try_submit(std::move(req)), contract_error);

  const Workload w = make_workload(604);
  ASSERT_FALSE(router.try_submit(make_request(w, 1)).has_value());
  router.drain();
  const RouterStats st = router.stats();
  EXPECT_EQ(st.offered, 1u);
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_TRUE(st.accounted());
  expect_correct_diff(collector.only(1), w);
}

// Each operand resolves on its own: a resident handle paired with a
// by-value image runs (kUnknownHandle means only that a named handle is not
// resident).  Only one operand came from the store, so the result is not
// cache-eligible and a repeat runs the engine again.
TEST(ShardRouter, MixedHandleAndValueOperandsRun) {
  std::shared_ptr<ImageStore> store;
  std::shared_ptr<ResultCache> cache;
  Collector collector;
  const Workload w = make_workload(605);
  ShardRouter router(store_router(store, cache), collector.callback());
  const ImageHandle ha = store->register_image(w.a).handle;
  for (std::uint64_t id = 0; id < 2; ++id) {
    ServiceRequest req;
    req.id = id;
    req.ref_handle = ha;
    req.scan = w.b;
    ASSERT_FALSE(router.try_submit(std::move(req)).has_value());
    collector.wait_for(id + 1);
  }
  ServiceRequest swapped;
  swapped.id = 2;
  swapped.reference = w.a;
  swapped.scan_handle = ha;
  swapped.scan = w.b;  // ignored: the handle names the scan
  ASSERT_FALSE(router.try_submit(std::move(swapped)).has_value());
  router.drain();

  for (std::uint64_t id = 0; id < 2; ++id) {
    const ServiceResponse r = collector.only(id);
    ASSERT_EQ(r.status, ServiceResponse::Status::kCompleted);
    EXPECT_FALSE(r.from_cache);
    expect_correct_diff(r, w);
  }
  const ServiceResponse self = collector.only(2);
  ASSERT_EQ(self.status, ServiceResponse::Status::kCompleted);
  EXPECT_EQ(self.diff, RleImage(w.a.width(), w.a.height()));  // a ^ a
  const RouterStats st = router.stats();
  EXPECT_EQ(st.shed_unknown_handle, 0u);
  EXPECT_TRUE(st.accounted());
  EXPECT_EQ(router.backend_stats().engine_invocations, 3u);
  const CacheStats cs = cache->stats();
  EXPECT_EQ(cs.lookups, 0u);
  EXPECT_EQ(cs.misses, 0u);
  EXPECT_EQ(cs.insertions, 0u);
}

// Operands are shared, never copied, from the caller to the engine: the
// rows an engine reads are the caller's own.
TEST(ShardRouter, DispatchSharesTheCallersImage) {
  Collector collector;
  ShardRouter router(small_router(2, 2), collector.callback());
  const Workload w = make_workload(606);
  const auto reference = std::make_shared<const RleImage>(w.a);
  const auto scan = std::make_shared<const RleImage>(w.b);
  std::atomic<const RleRow*> first_ref{nullptr};
  std::atomic<const RleRow*> first_scan{nullptr};
  ServiceRequest req;
  req.id = 0;
  req.reference = reference;
  req.scan = scan;
  req.engine_override = [&](const RleRow& a, const RleRow& b,
                            SystolicCounters&) {
    const RleRow* none = nullptr;
    first_ref.compare_exchange_strong(none, &a);
    none = nullptr;
    first_scan.compare_exchange_strong(none, &b);
    return xor_rows(a, b).canonical();
  };
  ASSERT_FALSE(router.try_submit(std::move(req)).has_value());
  router.drain();

  expect_correct_diff(collector.only(0), w);
  EXPECT_EQ(first_ref.load(), &reference->row(0));
  EXPECT_EQ(first_scan.load(), &scan->row(0));
}

// Four submitters send the same pairs by value and by handle while the
// store churns.  Every request is accounted for and answered with the
// oracle's diff; a pair has one result-table key whichever way it is sent
// (all but one request per pair join, so the engine runs once per pair);
// and the pins the in-flight requests hold block eviction of the pair's
// images until the last dispatch copy dies.
TEST(ShardRouter, ConcurrentByValueAndByHandleSubmitsStayAccounted) {
  constexpr std::uint64_t kPairs = 2;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 12;
  std::vector<Workload> pairs;
  for (std::uint64_t p = 0; p < kPairs; ++p)
    pairs.push_back(make_workload(607 + p));
  StoreConfig tight;
  tight.capacity_bytes = 3 * canonical_rle_bytes(pairs[0].a).size();
  auto store = std::make_shared<ImageStore>(tight);
  auto cache = std::make_shared<ResultCache>();
  RouterConfig cfg = small_router(1, 1);
  cfg.store = store;
  cfg.cache = cache;
  Collector collector;
  ShardRouter router(cfg, collector.callback());

  std::vector<ImageHandle> handles;
  std::vector<SharedImage> held;  // keeps the pairs resident until submitted
  for (const Workload& w : pairs)
    for (const RleImage* image : {&w.a, &w.b}) {
      handles.push_back(store->register_image(*image).handle);
      held.push_back(store->acquire(handles.back()));
    }

  // The plug holds the only worker, so every pair's first request stays
  // pending while the rest arrive.
  std::atomic<bool> release{false};
  const Workload plug_w = make_workload(609);
  ASSERT_FALSE(router.try_submit(make_plug(plug_w, 0, release)).has_value());

  std::atomic<bool> churning{true};
  std::thread churn([&] {
    for (std::uint64_t i = 0; churning.load(); ++i) {
      Rng rng(900 + i);
      RowGenParams p;
      p.width = 256;
      (void)store->register_image(generate_image(rng, 8, p));
    }
  });
  std::atomic<std::uint64_t> sheds{0};
  std::vector<std::thread> submitters;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id = 1 + t * kPerThread + i;
        const std::uint64_t p = id % kPairs;
        ServiceRequest req;
        if ((id / kPairs) % 2 == 0) {
          req = make_request(pairs[p], id);
        } else {
          req.id = id;
          req.ref_handle = handles[2 * p];
          req.scan_handle = handles[2 * p + 1];
        }
        if (router.try_submit(std::move(req))) sheds.fetch_add(1);
      }
    });
  for (std::thread& t : submitters) t.join();
  held.clear();

  // Only the in-flight requests pin the pairs now.
  for (const ImageHandle h : handles) EXPECT_FALSE(store->evict(h));
  churning.store(false);
  churn.join();
  release.store(true);
  router.drain();

  EXPECT_EQ(sheds.load(), 0u);
  const RouterStats st = router.stats();
  constexpr std::uint64_t kRequests = kThreads * kPerThread;
  EXPECT_EQ(st.offered, kRequests + 1);
  EXPECT_EQ(st.completed, kRequests + 1);
  EXPECT_EQ(st.coalesced, kRequests - kPairs);
  EXPECT_TRUE(st.accounted());
  EXPECT_EQ(router.backend_stats().engine_invocations, 1 + kPairs);
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    const ServiceResponse r = collector.only(id);
    ASSERT_EQ(r.status, ServiceResponse::Status::kCompleted);
    expect_correct_diff(r, pairs[id % kPairs]);
  }
  EXPECT_TRUE(cache->stats().accounted());
  // The last dispatch copy is gone: nothing pins the pairs any more.
  EXPECT_GT(store->stats().evict_blocked_by_pin, 0u);
  EXPECT_EQ(store->stats().pinned, 0u);
  for (const ImageHandle h : handles) EXPECT_TRUE(store->evict(h));
  EXPECT_TRUE(store->stats().accounted());
}

}  // namespace
}  // namespace sysrle
