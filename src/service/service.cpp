#include "service/service.hpp"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include <optional>

#include "common/assert.hpp"
#include "core/row_executor.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/request_context.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

ServiceStats& ServiceStats::operator+=(const ServiceStats& o) {
  offered += o.offered;
  admitted += o.admitted;
  completed += o.completed;
  failed += o.failed;
  shed_queue_full += o.shed_queue_full;
  shed_shutdown += o.shed_shutdown;
  shed_deadline_at_submit += o.shed_deadline_at_submit;
  shed_deadline_after_admit += o.shed_deadline_after_admit;
  cancelled += o.cancelled;
  deadline_misses += o.deadline_misses;
  engine_invocations += o.engine_invocations;
  fallback_rows += o.fallback_rows;
  unrecovered_rows += o.unrecovered_rows;
  return *this;
}

namespace {

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

}  // namespace

DiffService::DiffService(ServiceConfig config, Completion on_complete)
    : config_(config),
      on_complete_(std::move(on_complete)),
      queue_(config.admission) {
  // Worker sizing shares the row executor's resolution rule: 0 = auto
  // (hardware_concurrency, never 0), explicit counts honoured and capped.
  config_.workers = RowExecutor::resolve_threads(config_.workers);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

DiffService::~DiffService() { drain(); }

std::optional<RejectReason> DiffService::try_submit(ServiceRequest request) {
  SYSRLE_REQUIRE(request.same_size(),
                 "DiffService: request image dimensions differ");
  offered_.fetch_add(1, std::memory_order_relaxed);

  // Standalone submissions self-stamp an unrouted context; the shard router
  // pre-stamps routed ones (client id + attempt + shard/replica).
  if (!request.ctx.active) {
    request.ctx.active = true;
    request.ctx.request_id = request.id;
  }
  // Copy before the queue push can move the request away.
  const RequestContext ctx = request.ctx;
  const Priority priority = request.priority;

  auto shed = [&](RejectReason reason,
                  std::atomic<std::uint64_t>& counter) -> RejectReason {
    counter.fetch_add(1, std::memory_order_relaxed);
    flight_record(FlightEventKind::kShed, ctx, to_string(reason));
    flight_retain(ctx.request_id, "shed");
    return reason;
  };

  if (draining_.load(std::memory_order_acquire))
    return shed(RejectReason::kShutdown, shed_shutdown_);
  if (request.deadline.expired()) {
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    return shed(RejectReason::kDeadlineExpired, shed_deadline_at_submit_);
  }
  if (const auto reason = queue_.try_push(std::move(request))) {
    if (*reason == RejectReason::kQueueFull)
      return shed(RejectReason::kQueueFull, shed_queue_full_);
    return shed(RejectReason::kShutdown, shed_shutdown_);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  flight_record(FlightEventKind::kEnqueue, ctx, to_string(priority));
  return std::nullopt;
}

void DiffService::worker_loop() {
  while (auto item = queue_.pop()) process(std::move(*item));
}

void DiffService::process(AdmissionQueue::Item item) {
  ServiceRequest& req = item.request;

  // Install the request's identity on this worker thread for the duration:
  // every span the engines record underneath (stream.push_row, checked.row)
  // and every flight event picks it up automatically.  The scope outlives
  // the span below, so the span's destructor still sees the context.
  RequestContextScope ctx_scope(req.ctx);

  // Shard and replica travel in the context; the exporter writes them as
  // span args.
  TELEMETRY_SPAN("service.request", "service");

  const auto dequeued = std::chrono::steady_clock::now();
  flight_record(FlightEventKind::kDequeue, req.ctx, "",
                static_cast<std::uint64_t>(us_between(item.enqueued,
                                                      dequeued)));

  ServiceResponse response;
  response.id = req.id;
  response.priority = req.priority;
  response.queue_us = us_between(item.enqueued, dequeued);

  auto finish = [&](ServiceResponse::Status status) {
    response.status = status;
    const auto done = std::chrono::steady_clock::now();
    response.service_us = us_between(dequeued, done);
    response.total_us = us_between(item.enqueued, done);
    respond(std::move(response));
  };

  if (req.deadline.expired()) {
    // Expired while queued: shed before the engine sees a single run.
    response.reject_reason = RejectReason::kDeadlineExpired;
    flight_record(FlightEventKind::kDeadlineExpired, req.ctx, "in_queue");
    finish(ServiceResponse::Status::kRejected);
    return;
  }

  std::uint64_t checked_fallbacks = 0;
  std::uint64_t unrecovered = 0;

  const RleImage& reference = req.reference.image();
  const RleImage& scan = req.scan.image();

  std::vector<RleRow> diff_rows;
  if (req.keep_diff)
    diff_rows.reserve(static_cast<std::size_t>(reference.height()));

  StreamDiffer differ(req.options, [&](pos_t, const RleRow& d) {
    if (req.keep_diff) diff_rows.push_back(d);
  });
  differ.set_deadline([&req] { return req.deadline.expired(); });

  if (req.engine_override) {
    // Test/bench hook, run bare: a throw goes to StreamDiffer's per-row
    // sequential fallback.
    differ.set_engine_override(req.engine_override);
  } else if (config_.use_checked_engine || req.fault.has_value()) {
    differ.set_engine_override([&](const RleRow& a, const RleRow& b,
                                   SystolicCounters& c) -> RleRow {
      FaultInjection injection;
      if (req.fault.has_value()) injection.spec = &*req.fault;
      CheckedRowResult r = checked_xor(
          a, b, req.options.canonicalize_output, config_.recovery, injection);
      c.iterations = r.record.total_cycles;
      if (r.record.outcome == RecoveryOutcome::kFellBack) ++checked_fallbacks;
      if (!r.record.ok()) {
        ++unrecovered;
        return RleRow{};
      }
      return std::move(r.output);
    });
  }

  engine_invocations_.fetch_add(1, std::memory_order_relaxed);
  bool expired_mid_image = false;
  for (pos_t y = 0; y < reference.height(); ++y) {
    if (!differ.push_row(reference.row(y), scan.row(y))) {
      expired_mid_image = true;
      break;
    }
  }

  const StreamSummary& summary = differ.finish();
  response.rows_processed = summary.rows;
  response.fallback_rows = summary.fallback_rows + checked_fallbacks;
  response.unrecovered_rows = unrecovered;
  fallback_rows_.fetch_add(response.fallback_rows,
                           std::memory_order_relaxed);
  unrecovered_rows_.fetch_add(unrecovered, std::memory_order_relaxed);
  if (req.keep_diff)
    response.diff = RleImage(reference.width(), std::move(diff_rows));

  if (expired_mid_image) {
    response.reject_reason = RejectReason::kDeadlineExpired;
    flight_record(FlightEventKind::kDeadlineExpired, req.ctx, "mid_image",
                  response.rows_processed);
    finish(ServiceResponse::Status::kRejected);
  } else if (unrecovered > 0) {
    finish(ServiceResponse::Status::kFailed);
  } else {
    finish(ServiceResponse::Status::kCompleted);
  }
}

void DiffService::respond(ServiceResponse response) {
  // The worker's RequestContextScope is still installed here, so flight
  // events carry the request identity without threading it through.
  const RequestContext& ctx = current_request_context();
  switch (response.status) {
    case ServiceResponse::Status::kCompleted:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServiceResponse::Status::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServiceResponse::Status::kRejected:
      shed_deadline_after_admit_.fetch_add(1, std::memory_order_relaxed);
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      flight_retain(ctx.request_id, "deadline_expired");
      break;
  }
  if (telemetry_enabled()) {
    MetricsRegistry& m = global_metrics();
    m.observe("service.queue_wait_us", response.queue_us);
    m.observe(std::string("service.latency_us.") +
                  to_string(response.priority),
              response.total_us);
  }
  flight_record(FlightEventKind::kRespond, ctx, to_string(response.status),
                static_cast<std::uint64_t>(response.total_us));
  if (on_complete_) on_complete_(std::move(response));
}

void DiffService::drain() {
  std::call_once(drain_once_, [this] {
    draining_.store(true, std::memory_order_release);
    queue_.close();
    for (std::thread& t : workers_) t.join();
    if (telemetry_enabled()) {
      // Flush gauges to their drained baseline so an exported snapshot
      // cannot advertise phantom queued work.
      MetricsRegistry& m = global_metrics();
      m.set_gauge("service.queue_depth", 0.0);
      m.set_gauge("service.queue_depth.interactive", 0.0);
      m.set_gauge("service.queue_depth.batch", 0.0);
    }
  });
}

ServiceStats DiffService::stats() const {
  ServiceStats s;
  s.offered = offered_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_shutdown = shed_shutdown_.load(std::memory_order_relaxed);
  s.shed_deadline_at_submit =
      shed_deadline_at_submit_.load(std::memory_order_relaxed);
  s.shed_deadline_after_admit =
      shed_deadline_after_admit_.load(std::memory_order_relaxed);
  s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  s.engine_invocations = engine_invocations_.load(std::memory_order_relaxed);
  s.fallback_rows = fallback_rows_.load(std::memory_order_relaxed);
  s.unrecovered_rows = unrecovered_rows_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sysrle
