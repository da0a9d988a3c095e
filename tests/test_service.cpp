// Tests for DiffService: admission, typed shedding, deadline propagation,
// the bare engine hook's per-row fallback, and graceful drain.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "core/image_diff.hpp"
#include "rle/ops.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

struct Workload {
  RleImage a{0, 0};
  RleImage b{0, 0};
};

Workload make_workload(std::uint64_t seed, pos_t rows, pos_t width = 512) {
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

/// Collects every delivered response, thread-safe.
class Collector {
 public:
  DiffService::Completion callback() {
    return [this](ServiceResponse r) {
      std::lock_guard<std::mutex> lk(mu_);
      responses_.push_back(std::move(r));
    };
  }
  std::vector<ServiceResponse> responses() const {
    std::lock_guard<std::mutex> lk(mu_);
    return responses_;
  }
  std::size_t count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return responses_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<ServiceResponse> responses_;
};

TEST(Service, CompletesARequestWithTheCorrectDiff) {
  const Workload w = make_workload(1, 8);
  Collector collector;
  DiffService service(ServiceConfig{}, collector.callback());
  ASSERT_FALSE(service.try_submit(make_request(w, 7)).has_value());
  service.drain();

  const auto responses = collector.responses();
  ASSERT_EQ(responses.size(), 1u);
  const ServiceResponse& r = responses[0];
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.status, ServiceResponse::Status::kCompleted);
  EXPECT_EQ(r.rows_processed, 8u);
  ASSERT_EQ(r.diff.height(), w.a.height());
  for (pos_t y = 0; y < w.a.height(); ++y)
    EXPECT_EQ(r.diff.row(y), xor_rows(w.a.row(y), w.b.row(y)).canonical())
        << "row " << y;

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.offered, 1u);
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.shed_total(), 0u);
}

TEST(Service, RejectsMismatchedDimensionsAtSubmit) {
  const Workload w = make_workload(2, 4);
  DiffService service(ServiceConfig{}, nullptr);
  ServiceRequest req = make_request(w, 1);
  req.scan = RleImage(w.a.width(), w.a.height() + 1);
  EXPECT_THROW((void)service.try_submit(std::move(req)), contract_error);
}

TEST(Service, ShedsQueueFullWhenSaturatedAndAccountingHolds) {
  const Workload w = make_workload(3, 16, 2048);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.admission.interactive_capacity = 1;
  cfg.admission.batch_capacity = 1;
  Collector collector;
  std::uint64_t offered = 0, shed = 0;
  std::map<RejectReason, std::uint64_t> reasons;
  {
    DiffService service(cfg, collector.callback());
    // Pin the worker until all submissions are in, so the overflow (and the
    // shed counts) cannot race against the worker's drain speed.
    std::atomic<bool> release{false};
    ServiceRequest plug = make_request(w, 0);
    plug.engine_override = [&](const RleRow& a, const RleRow& b,
                               SystolicCounters&) {
      while (!release.load()) std::this_thread::yield();
      return xor_rows(a, b);
    };
    ++offered;
    ASSERT_FALSE(service.try_submit(std::move(plug)).has_value());
    for (std::uint64_t i = 1; i < 64; ++i) {
      ++offered;
      const auto refused = service.try_submit(make_request(w, i));
      if (refused) {
        ++shed;
        ++reasons[*refused];
      }
    }
    release.store(true);
    service.drain();
    const ServiceStats st = service.stats();
    // Zero silent drops: every offered request is admitted or typed-shed,
    // and every admitted request got exactly one response.
    EXPECT_EQ(st.offered, offered);
    EXPECT_EQ(st.admitted + st.shed_queue_full + st.shed_shutdown +
                  st.shed_deadline_at_submit,
              offered);
    EXPECT_EQ(collector.count(), st.admitted);
    EXPECT_GT(st.shed_queue_full, 0u);
    EXPECT_EQ(st.shed_queue_full, reasons[RejectReason::kQueueFull]);
    EXPECT_EQ(shed, st.shed_total());
  }
}

TEST(Service, ExpiredDeadlineIsShedAtSubmit) {
  const Workload w = make_workload(4, 4);
  DiffService service(ServiceConfig{}, nullptr);
  ServiceRequest req = make_request(w, 1);
  req.deadline = Deadline::after(std::chrono::microseconds(-1));
  const auto refused = service.try_submit(std::move(req));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(*refused, RejectReason::kDeadlineExpired);
  service.drain();
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.shed_deadline_at_submit, 1u);
  EXPECT_EQ(st.deadline_misses, 1u);
}

// The acceptance test of the ISSUE: an expired request stops consuming
// engine cycles mid-image.  The counting engine tallies every row the
// engine actually runs; after the deadline trips, the count must freeze
// even though the image has many rows left.
TEST(Service, ExpiredDeadlineStopsEngineWorkMidImage) {
  const pos_t kRows = 64;
  const Workload w = make_workload(5, kRows);
  std::atomic<std::uint64_t> engine_rows{0};
  std::atomic<bool> expire_now{false};

  ServiceConfig cfg;
  cfg.workers = 1;
  Collector collector;
  DiffService service(cfg, collector.callback());

  ServiceRequest req = make_request(w, 1);
  // A real wall-clock deadline far enough out to admit the request, crossed
  // while the request is mid-image (the engine override flips the switch
  // after 8 rows by burning the remaining time).
  req.deadline = Deadline::after(std::chrono::milliseconds(30));
  req.engine_override = [&](const RleRow& a, const RleRow& b,
                            SystolicCounters&) {
    engine_rows.fetch_add(1);
    if (engine_rows.load() == 8) {
      // Burn out the deadline inside the engine so the *next* between-rows
      // check sees it expired.
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    return xor_rows(a, b);
  };
  ASSERT_FALSE(service.try_submit(std::move(req)).has_value());
  service.drain();

  const auto responses = collector.responses();
  ASSERT_EQ(responses.size(), 1u);
  const ServiceResponse& r = responses[0];
  EXPECT_EQ(r.status, ServiceResponse::Status::kRejected);
  EXPECT_EQ(r.reject_reason, RejectReason::kDeadlineExpired);
  // The engine ran exactly the rows before expiry — not one more.
  EXPECT_EQ(engine_rows.load(), 8u);
  EXPECT_EQ(r.rows_processed, 8u);
  EXPECT_LT(r.rows_processed, static_cast<std::uint64_t>(kRows));
  EXPECT_EQ(service.stats().deadline_misses, 1u);
  EXPECT_EQ(service.stats().shed_deadline_after_admit, 1u);
}

TEST(Service, DeadlineExpiredWhileQueuedIsRejectedWithoutEngineWork) {
  const Workload w = make_workload(6, 8);
  std::atomic<std::uint64_t> engine_rows{0};
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.admission.batch_capacity = 8;
  Collector collector;
  DiffService service(cfg, collector.callback());

  // First request hogs the single worker long enough for the second's
  // deadline to lapse in the queue.
  ServiceRequest hog = make_request(w, 1);
  hog.engine_override = [](const RleRow& a, const RleRow& b,
                           SystolicCounters&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return xor_rows(a, b);
  };
  ServiceRequest doomed = make_request(w, 2);
  doomed.deadline = Deadline::after(std::chrono::milliseconds(5));
  doomed.engine_override = [&](const RleRow& a, const RleRow& b,
                               SystolicCounters&) {
    engine_rows.fetch_add(1);
    return xor_rows(a, b);
  };
  ASSERT_FALSE(service.try_submit(std::move(hog)).has_value());
  ASSERT_FALSE(service.try_submit(std::move(doomed)).has_value());
  service.drain();

  const auto responses = collector.responses();
  ASSERT_EQ(responses.size(), 2u);
  const ServiceResponse* rejected = nullptr;
  for (const ServiceResponse& r : responses)
    if (r.id == 2) rejected = &r;
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->status, ServiceResponse::Status::kRejected);
  EXPECT_EQ(rejected->reject_reason, RejectReason::kDeadlineExpired);
  EXPECT_EQ(rejected->rows_processed, 0u);
  EXPECT_EQ(engine_rows.load(), 0u);  // the engine never saw the request
}

// The engine hook runs bare: a throwing row is not retried, it goes
// straight to StreamDiffer's sequential fallback and the request completes.
TEST(Service, ThrowingEngineOverrideFallsBackPerRowWithoutRetry) {
  const Workload w = make_workload(7, 6);
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector collector;
  DiffService service(cfg, collector.callback());

  std::atomic<std::uint64_t> calls{0};
  ServiceRequest req = make_request(w, 1);
  req.engine_override = [&](const RleRow&, const RleRow&,
                            SystolicCounters&) -> RleRow {
    calls.fetch_add(1);
    throw std::runtime_error("injected engine fault");
  };
  ASSERT_FALSE(service.try_submit(std::move(req)).has_value());
  service.drain();

  const auto responses = collector.responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServiceResponse::Status::kCompleted);
  EXPECT_EQ(responses[0].rows_processed, 6u);
  EXPECT_EQ(responses[0].fallback_rows, 6u);
  EXPECT_EQ(calls.load(), 6u);  // one call per row, no retry
  for (pos_t y = 0; y < w.a.height(); ++y)
    EXPECT_EQ(responses[0].diff.row(y).canonical(),
              xor_rows(w.a.row(y), w.b.row(y)).canonical());
  EXPECT_EQ(service.stats().fallback_rows, 6u);
}

// Checked mode runs every row through checked_xor, which must honour the
// request's own canonicalize_output: the response (and whatever a result
// cache stores under the request's canonical key) is the diff the unchecked
// systolic engine gives for the same options.
TEST(Service, CheckedEngineHonoursCanonicalizeOutput) {
  const Workload w = make_workload(21, 12);
  for (const bool canonical : {true, false}) {
    ServiceConfig cfg;
    cfg.use_checked_engine = true;
    Collector collector;
    {
      DiffService service(cfg, collector.callback());
      ServiceRequest req = make_request(w, 1);
      req.options.engine = DiffEngine::kSystolic;
      req.options.canonicalize_output = canonical;
      ASSERT_FALSE(service.try_submit(std::move(req)).has_value());
      service.drain();
    }
    ImageDiffOptions expected_options;
    expected_options.engine = DiffEngine::kSystolic;
    expected_options.canonicalize_output = canonical;
    const RleImage expected = image_diff(w.a, w.b, expected_options).diff;

    const auto responses = collector.responses();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_EQ(responses[0].status, ServiceResponse::Status::kCompleted);
    const RleImage& got = responses[0].diff;
    ASSERT_EQ(got.height(), w.a.height());
    bool any_raw_row = false;
    for (pos_t y = 0; y < w.a.height(); ++y) {
      EXPECT_EQ(got.row(y), expected.row(y))
          << "canonical=" << canonical << " row " << y;
      if (canonical) {
        EXPECT_TRUE(got.row(y).is_canonical()) << "row " << y;
      }
      any_raw_row |= !got.row(y).is_canonical();
    }
    // The workload is one where the raw systolic output is not canonical,
    // so the canonical case above is not passing by accident.
    if (!canonical) {
      EXPECT_TRUE(any_raw_row);
    }
  }
}

TEST(Service, DrainDeliversEveryAdmittedResponseAndRefusesNewWork) {
  const Workload w = make_workload(9, 8);
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.admission.batch_capacity = 64;
  Collector collector;
  DiffService service(cfg, collector.callback());
  for (std::uint64_t i = 0; i < 16; ++i)
    ASSERT_FALSE(service.try_submit(make_request(w, i)).has_value());
  service.drain();
  EXPECT_EQ(collector.count(), 16u);

  const auto refused = service.try_submit(make_request(w, 99));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(*refused, RejectReason::kShutdown);
  EXPECT_EQ(service.stats().shed_shutdown, 1u);
  service.drain();  // idempotent
}

TEST(Service, DestructorDrainsWithoutExplicitCall) {
  const Workload w = make_workload(10, 8);
  Collector collector;
  {
    DiffService service(ServiceConfig{}, collector.callback());
    for (std::uint64_t i = 0; i < 4; ++i)
      ASSERT_FALSE(service.try_submit(make_request(w, i)).has_value());
  }
  EXPECT_EQ(collector.count(), 4u);
}

TEST(Service, PublishesServingMetrics) {
  reset_telemetry();
  set_telemetry_enabled(true);
  ServiceStats stats;
  {
    const Workload w = make_workload(11, 4);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.admission.interactive_capacity = 1;
    cfg.admission.batch_capacity = 1;
    DiffService service(cfg, nullptr);
    // Pin the single worker on the first request until every submission is
    // in, so the queue overflow (and the queue_full sheds) is deterministic
    // rather than a race against the worker's drain speed.
    std::atomic<bool> release{false};
    ServiceRequest plug = make_request(w, 0, Priority::kInteractive);
    plug.engine_override = [&](const RleRow& a, const RleRow& b,
                               SystolicCounters&) {
      while (!release.load()) std::this_thread::yield();
      return xor_rows(a, b);
    };
    ASSERT_FALSE(service.try_submit(std::move(plug)).has_value());
    for (std::uint64_t i = 1; i < 16; ++i)
      (void)service.try_submit(
          make_request(w, i, i % 2 ? Priority::kInteractive : Priority::kBatch));
    release.store(true);
    service.drain();
    stats = service.stats();
  }
  // Counts live in ServiceStats only; the registry holds the distributions
  // and the queue-depth gauges.
  EXPECT_GT(stats.offered, 0u);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.shed_queue_full, 0u);
  const MetricsSnapshot snap = global_metrics().snapshot();
  EXPECT_EQ(snap.gauge("service.queue_depth", -1.0), 0.0);  // drained
  const Histogram* wait = snap.histogram("service.queue_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->stat().count(), 0u);
  EXPECT_NE(snap.histogram("service.latency_us.interactive"), nullptr);
  EXPECT_NE(snap.histogram("service.latency_us.batch"), nullptr);
  set_telemetry_enabled(false);
  reset_telemetry();
}

}  // namespace
}  // namespace sysrle
