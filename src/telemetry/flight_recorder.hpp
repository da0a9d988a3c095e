#pragma once
// Flight recorder: a bounded lock-free ring of per-request serving events,
// with anomaly-triggered timeline retention.
//
// Aggregate counters (`router.*`, `service.*`) say *how often* the serving
// stack failed over, coalesced, or shed — they cannot say what happened to
// request 1731.  The flight recorder can: every admission, queue
// transition, dispatch, failover, breaker trip, and response is recorded
// as one fixed-size event carrying the RequestContext, into a
// ring whose write path is a ticket fetch_add plus relaxed stores — no
// mutex, no allocation — so it can sit on the serving path.  When the ring
// wraps, the oldest events are overwritten (a flight recorder keeps the
// *recent* past; the per-request `retain` mechanism below preserves the
// interesting bits beyond that horizon).
//
// Anomalies — a deadline expiry, a typed shed, a breaker opening — call
// `retain(request_id, anomaly)`: the request's completed timeline is
// copied out of the ring into a bounded retained set
// (mutex-guarded; retention is the cold path) and survives later ring
// wraps.  Exporters (telemetry/exporters.hpp) dump the ring and the
// retained timelines as JSONL (`sysrle.flight.v1`) and as a Chrome trace
// with one lane per replica.
//
// Enabling: install a recorder with set_flight_recorder(&fr).  Recording
// sites call flight_record(...), whose disabled fast path is a single
// relaxed atomic pointer load — the same contract as telemetry_enabled().
//
// Sizing: one slot is ~64 bytes; a request produces ~4 events (admit,
// enqueue/dequeue, dispatch, respond) plus one per failover/coalesce
// decision, so capacity N reconstructs roughly the last N/6 requests.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/request_context.hpp"

namespace sysrle {

/// The event vocabulary (docs/OBSERVABILITY.md, "Request tracing and the
/// flight recorder").  One request's life is a sequence of these.
enum class FlightEventKind : std::uint8_t {
  kAdmit,             ///< router/service accepted the request
  kShed,              ///< typed synchronous rejection (detail = reason)
  kEnqueue,           ///< entered a backend admission queue
  kDequeue,           ///< left the queue for a worker (arg = queue µs)
  kDispatch,          ///< submitted to shard/replica (ctx says which)
  kFailover,          ///< dispatch landed off the preferred replica
  kCoalesceJoined,    ///< attached as waiter (arg = primary's request id)
  kCoalescePromoted,  ///< waiter promoted to primary after owner expired
  kBreakerTrip,       ///< a circuit breaker transitioned to open
  kDeadlineExpired,   ///< deadline passed after admission (queue/mid-image)
  kRespond,           ///< client-visible response delivered (detail = status)
  kCacheHit,          ///< by-handle diff served from the result cache
  kCacheMiss,         ///< by-handle diff missed the result cache
  kStoreEvict,        ///< image store evicted an entry (arg = fingerprint)
  kJournalAppend,     ///< durable store journaled a record (detail = kind)
  kSnapshot,          ///< durable store wrote a snapshot (arg = entries)
  kRecoveryDrop,      ///< recovery dropped an entry (detail = reason)
};

/// Human-readable (and JSONL) kind name, e.g. "breaker_trip".
const char* to_string(FlightEventKind kind);

/// One recorded event.  `seq` is the global record order (the ring ticket),
/// so interleavings across threads reconstruct exactly.
struct FlightEvent {
  std::uint64_t seq = 0;
  std::uint64_t ts_us = 0;  ///< microseconds since the recorder's epoch
  FlightEventKind kind = FlightEventKind::kAdmit;
  RequestContext ctx;
  const char* detail = "";  ///< string literal: reason/status/label
  std::uint64_t arg = 0;    ///< kind-specific payload (µs, linked id, ...)
};

/// Bounded lock-free event ring + bounded retained-timeline set.
class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (min 64).  `max_retained`
  /// bounds the anomaly set; once full, later retains are counted and
  /// dropped (the earliest anomalies are usually the diagnostic ones).
  explicit FlightRecorder(std::size_t capacity = 1 << 14,
                          std::size_t max_retained = 256);

  /// Records one event (thread-safe, lock-free: ticket fetch_add + relaxed
  /// payload stores).  `detail` must be a string literal.
  void record(FlightEventKind kind, const RequestContext& ctx,
              const char* detail = "", std::uint64_t arg = 0);

  /// Test/export hook: record with an explicit timestamp instead of the
  /// recorder clock, so golden dumps are byte-stable.
  void record_at(std::uint64_t ts_us, FlightEventKind kind,
                 const RequestContext& ctx, const char* detail = "",
                 std::uint64_t arg = 0);

  /// Copies the request's events out of the ring into the retained set
  /// (idempotent per request id; later retains of the same id replace the
  /// timeline with the longer view).  Cold path: takes the retained mutex.
  void retain(std::uint64_t request_id, const char* anomaly);

  struct RetainedTimeline {
    std::uint64_t request_id = 0;
    std::string anomaly;
    std::vector<FlightEvent> events;  ///< in seq order
  };

  /// Everything still live in the ring, in seq order.  Events being
  /// overwritten mid-read are skipped, never torn.
  std::vector<FlightEvent> snapshot() const;

  /// The ring's view of one request (subset of snapshot()).
  std::vector<FlightEvent> timeline(std::uint64_t request_id) const;

  /// The anomaly set, in retention order.
  std::vector<RetainedTimeline> retained() const;

  std::uint64_t recorded() const;  ///< events ever recorded
  std::uint64_t dropped() const;   ///< events overwritten by ring wrap
  std::uint64_t retain_dropped() const;  ///< retains refused (set full)
  std::size_t capacity() const { return capacity_; }

  /// Microseconds since construction (the event clock).
  std::uint64_t now_us() const;

 private:
  // One ring slot.  `seq` is the publication word: even = published (value
  // 2*(ticket + capacity)), odd = a writer is mid-store.  Payload fields
  // are relaxed atomics so concurrent snapshot() reads are race-free; the
  // seq acquire/release pair orders them.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ts_us{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<bool> ctx_active{false};
    std::atomic<std::uint64_t> request_id{0};
    std::atomic<std::uint32_t> attempt{0};
    std::atomic<std::int32_t> shard{-1};
    std::atomic<std::int32_t> replica{-1};
    std::atomic<const char*> detail{""};
    std::atomic<std::uint64_t> arg{0};
  };

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};

  std::size_t max_retained_;
  mutable std::mutex retained_mu_;
  std::vector<RetainedTimeline> retained_;
  std::uint64_t retain_dropped_ = 0;
};

namespace flight_detail {
extern std::atomic<FlightRecorder*> g_recorder;
}  // namespace flight_detail

/// The process-global recorder, or nullptr when flight recording is off.
/// Inline single relaxed atomic load — safe on the serving path.
inline FlightRecorder* flight_recorder() {
  return flight_detail::g_recorder.load(std::memory_order_relaxed);
}

/// Installs (or, with nullptr, removes) the global recorder.  The caller
/// owns the recorder and must keep it alive while installed.
void set_flight_recorder(FlightRecorder* recorder);

/// Records into the global recorder when one is installed; a no-op
/// (one relaxed load) otherwise.
inline void flight_record(FlightEventKind kind, const RequestContext& ctx,
                          const char* detail = "", std::uint64_t arg = 0) {
  if (FlightRecorder* fr = flight_recorder()) fr->record(kind, ctx, detail, arg);
}

/// Retains into the global recorder when one is installed.
inline void flight_retain(std::uint64_t request_id, const char* anomaly) {
  if (FlightRecorder* fr = flight_recorder()) fr->retain(request_id, anomaly);
}

}  // namespace sysrle
