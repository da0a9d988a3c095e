#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <thread>

namespace sysrle {

namespace flight_detail {
std::atomic<FlightRecorder*> g_recorder{nullptr};
}  // namespace flight_detail

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kEnqueue: return "enqueue";
    case FlightEventKind::kDequeue: return "dequeue";
    case FlightEventKind::kDispatch: return "dispatch";
    case FlightEventKind::kFailover: return "failover";
    case FlightEventKind::kCoalesceJoined: return "coalesce_joined";
    case FlightEventKind::kCoalescePromoted: return "coalesce_promoted";
    case FlightEventKind::kBreakerTrip: return "breaker_trip";
    case FlightEventKind::kDeadlineExpired: return "deadline_expired";
    case FlightEventKind::kRespond: return "respond";
    case FlightEventKind::kCacheHit: return "cache_hit";
    case FlightEventKind::kCacheMiss: return "cache_miss";
    case FlightEventKind::kStoreEvict: return "store_evict";
    case FlightEventKind::kJournalAppend: return "journal_append";
    case FlightEventKind::kSnapshot: return "snapshot";
    case FlightEventKind::kRecoveryDrop: return "recovery_drop";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity, std::size_t max_retained)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(round_up_pow2(capacity)),
      slots_(std::make_unique<Slot[]>(capacity_)),
      max_retained_(max_retained) {
  // Slot i starts "free for ticket i": published word 2*i.
  for (std::size_t i = 0; i < capacity_; ++i)
    slots_[i].seq.store(2 * i, std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

void FlightRecorder::record(FlightEventKind kind, const RequestContext& ctx,
                            const char* detail, std::uint64_t arg) {
  record_at(now_us(), kind, ctx, detail, arg);
}

void FlightRecorder::record_at(std::uint64_t ts_us, FlightEventKind kind,
                               const RequestContext& ctx, const char* detail,
                               std::uint64_t arg) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & (capacity_ - 1)];
  // Wait for the previous lap's writer to publish (seq == 2*ticket).  Only
  // contended when a writer is lapped, i.e. `capacity_` events were recorded
  // during one record_at call — vanishingly rare; yield, don't block.
  while (s.seq.load(std::memory_order_acquire) != 2 * ticket)
    std::this_thread::yield();
  // Claim (odd word): readers mid-snapshot skip this slot.
  s.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  s.ts_us.store(ts_us, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  s.ctx_active.store(ctx.active, std::memory_order_relaxed);
  s.request_id.store(ctx.request_id, std::memory_order_relaxed);
  s.attempt.store(ctx.attempt, std::memory_order_relaxed);
  s.shard.store(ctx.shard, std::memory_order_relaxed);
  s.replica.store(ctx.replica, std::memory_order_relaxed);
  s.detail.store(detail, std::memory_order_relaxed);
  s.arg.store(arg, std::memory_order_relaxed);
  // Publish: the slot is now free for ticket + capacity.
  s.seq.store(2 * (ticket + capacity_), std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;                    // writer mid-store
    if (s1 / 2 < capacity_) continue;        // never written
    FlightEvent e;
    e.seq = s1 / 2 - capacity_;
    e.ts_us = s.ts_us.load(std::memory_order_relaxed);
    e.kind = static_cast<FlightEventKind>(
        s.kind.load(std::memory_order_relaxed));
    e.ctx.active = s.ctx_active.load(std::memory_order_relaxed);
    e.ctx.request_id = s.request_id.load(std::memory_order_relaxed);
    e.ctx.attempt = s.attempt.load(std::memory_order_relaxed);
    e.ctx.shard = s.shard.load(std::memory_order_relaxed);
    e.ctx.replica = s.replica.load(std::memory_order_relaxed);
    e.detail = s.detail.load(std::memory_order_relaxed);
    e.arg = s.arg.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    // Unchanged seq = the payload reads above were not overwritten; a
    // changed seq means the slot was recycled mid-read — drop it (the new
    // event will be seen by a later snapshot).
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::timeline(
    std::uint64_t request_id) const {
  std::vector<FlightEvent> out;
  for (const FlightEvent& e : snapshot())
    if (e.ctx.active && e.ctx.request_id == request_id) out.push_back(e);
  return out;
}

void FlightRecorder::retain(std::uint64_t request_id, const char* anomaly) {
  {
    // Reserve (or find) the slot first, so a full set refuses *before*
    // paying the ring scan — under sustained overload every shed retains.
    const std::lock_guard<std::mutex> lock(retained_mu_);
    bool exists = false;
    for (const RetainedTimeline& t : retained_)
      if (t.request_id == request_id) { exists = true; break; }
    if (!exists) {
      if (retained_.size() >= max_retained_) {
        ++retain_dropped_;
        return;
      }
      retained_.push_back({request_id, anomaly, {}});
    }
  }
  std::vector<FlightEvent> events = timeline(request_id);
  const std::lock_guard<std::mutex> lock(retained_mu_);
  for (RetainedTimeline& t : retained_) {
    if (t.request_id != request_id) continue;
    // Re-retained (e.g. a breaker trip then a later deadline expiry): keep
    // the longer view and the first anomaly label.
    if (events.size() >= t.events.size()) t.events = std::move(events);
    return;
  }
}

std::vector<FlightRecorder::RetainedTimeline> FlightRecorder::retained()
    const {
  const std::lock_guard<std::mutex> lock(retained_mu_);
  return retained_;
}

std::uint64_t FlightRecorder::recorded() const {
  return head_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::dropped() const {
  const std::uint64_t n = recorded();
  return n > capacity_ ? n - capacity_ : 0;
}

std::uint64_t FlightRecorder::retain_dropped() const {
  const std::lock_guard<std::mutex> lock(retained_mu_);
  return retain_dropped_;
}

void set_flight_recorder(FlightRecorder* recorder) {
  flight_detail::g_recorder.store(recorder, std::memory_order_release);
}

}  // namespace sysrle
