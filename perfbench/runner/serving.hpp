#pragma once
// What the two serve workloads share: the client-side record of one
// open-loop request, its spans, and the router/backend metrics and gates.

#include <atomic>

#include "harness.hpp"
#include "service/shard_router.hpp"

namespace perfbench {

/// One open-loop request as its client saw it.  Written by the submitting
/// thread and by the completion callback; read after the router drained.
struct ServedSlot {
  TimePoint sched;    ///< scheduled arrival
  TimePoint started;  ///< the client picked the arrival up
  TimePoint done;     ///< response delivered
  double submit_us = 0.0;  ///< time inside ShardRouter::try_submit
  bool admitted = false;
  std::atomic<int> deliveries{0};
  sysrle::ServiceResponse response;

  /// Delivered exactly once, completed.
  bool completed() const {
    return admitted && deliveries.load() == 1 &&
           response.status == sysrle::ServiceResponse::Status::kCompleted;
  }
  /// Exactly one delivery per admission, none for a synchronous shed.
  bool delivery_accounted() const {
    return deliveries.load() == (admitted ? 1 : 0);
  }
};

/// Records the request's root span, its generator lag, and the backend
/// queue and execution intervals its response reports (a cache hit has
/// none), placed back from the delivery time.
void trace_served(Tracer& tracer, std::uint64_t op, const ServedSlot& s);

/// Router and backend counters over the measured window (`before` is the
/// snapshot taken after set-up), plus the router and backend accounting
/// gates over the router's lifetime.
void add_serving_metrics(Report& rep, const sysrle::RouterStats& before,
                         const sysrle::RouterStats& after,
                         const sysrle::ServiceStats& before_backend,
                         const sysrle::ServiceStats& after_backend);

}  // namespace perfbench
