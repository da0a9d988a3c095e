#include "serving.hpp"

namespace perfbench {

using namespace sysrle;

void trace_served(Tracer& tracer, std::uint64_t op, const ServedSlot& s) {
  if (!tracer.enabled()) return;
  tracer.span(op, "op", s.sched, s.done);
  tracer.span(op, "bench.gen_lag", s.sched, s.started);
  if (s.response.from_cache) return;
  const auto us = [](double v) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(v));
  };
  const TimePoint exec_from = s.done - us(s.response.service_us);
  tracer.span(op, "service.queue", exec_from - us(s.response.queue_us),
              exec_from);
  tracer.span(op, "service.exec", exec_from, s.done);
}

void add_serving_metrics(Report& rep, const RouterStats& before,
                         const RouterStats& after,
                         const ServiceStats& before_backend,
                         const ServiceStats& after_backend) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const RouterStats& r0 = before;
  const RouterStats& r1 = after;
  rep.layer("router.coalesced", delta(r1.coalesced, r0.coalesced), "count");
  rep.layer("router.failovers", delta(r1.failovers, r0.failovers), "count");
  const double fired = delta(r1.hedges_fired, r0.hedges_fired);
  const double won = delta(r1.hedges_won, r0.hedges_won);
  rep.layer("router.hedges_fired", fired, "count");
  rep.layer("router.hedges_won", won, "count");
  rep.layer("router.hedges_suppressed",
            delta(r1.hedges_suppressed, r0.hedges_suppressed), "count");
  rep.layer("router.hedge_win_ratio", ratio(won, fired), "share");

  const ServiceStats& s0 = before_backend;
  const ServiceStats& s1 = after_backend;
  const double invocations =
      delta(s1.engine_invocations, s0.engine_invocations);
  const double completed = delta(s1.completed, s0.completed);
  rep.layer("service.engine_invocations", invocations, "count");
  rep.layer("service.completed", completed, "count");
  rep.layer("service.useful_share", ratio(completed, invocations), "share");
  rep.layer("service.cancelled", delta(s1.cancelled, s0.cancelled), "count");
  rep.layer("service.shed_queue_full",
            delta(s1.shed_queue_full, s0.shed_queue_full), "count");

  rep.gate(r1.accounted(), "RouterStats::accounted() is false");
  rep.gate(s1.responses() == s1.admitted, "backend responses != admitted");
}

}  // namespace perfbench
