#pragma once
// Shared vocabulary of the overload-safe serving layer (src/service): what a
// request is, how it can be refused, and how its deadline is carried.
//
// The ROADMAP's north star is a system "serving heavy traffic from millions
// of users"; the paper's pitch is bounded per-row latency.  This layer keeps
// that promise under load the engines cannot absorb: every request either
// completes or is *shed with a typed reason* — never silently dropped — and
// an expired request stops consuming machine cycles the moment its deadline
// passes.  docs/ROBUSTNESS.md ("Serving under overload") has the full state
// machines.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/faults.hpp"
#include "core/image_diff.hpp"
#include "core/stream_diff.hpp"
#include "rle/rle_image.hpp"
#include "store/image_store.hpp"
#include "telemetry/request_context.hpp"

namespace sysrle {

/// Request class.  Interactive requests (an operator waiting at a review
/// station) are always dequeued before batch requests (offline re-scans).
enum class Priority {
  kInteractive,
  kBatch,
};

/// Human-readable priority name.
const char* to_string(Priority priority);

/// Why a request was refused.  Every shed path names one of these — the
/// "Rejected{...}" outcome of the ISSUE — so offered == admitted + shed is
/// checkable by the caller (and checked by bench_overload).
enum class RejectReason {
  kQueueFull,        ///< the admission queue for the class was at capacity
  kDeadlineExpired,  ///< the deadline passed before/while the request ran
  kShutdown,         ///< the service is draining and admits nothing new
  kShardDown,        ///< every replica of the routed shard is quarantined
  kUnknownHandle,    ///< a by-handle operand is not resident in the store
};

/// Human-readable rejection name.
const char* to_string(RejectReason reason);

/// An absolute point in time after which a request must stop consuming
/// resources.  Default-constructed: no deadline.
class Deadline {
 public:
  Deadline() = default;

  /// Deadline `d` from now.
  static Deadline after(std::chrono::microseconds d) {
    Deadline dl;
    dl.at_ = std::chrono::steady_clock::now() + d;
    return dl;
  }
  static Deadline after_ms(std::int64_t ms) {
    return after(std::chrono::microseconds(ms * 1000));
  }

  bool has_deadline() const { return at_.has_value(); }

  /// True when the deadline has passed (never true without a deadline).
  bool expired() const {
    return at_.has_value() && std::chrono::steady_clock::now() >= *at_;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

/// One unit of service work: diff a reference/scan image pair.
struct ServiceRequest {
  std::uint64_t id = 0;
  Priority priority = Priority::kBatch;
  Deadline deadline;  ///< default: none

  /// Routing handle for the shard router: requests with equal keys land on
  /// the same shard (and replica preference order).  0 = derive from the
  /// image content fingerprints, so re-submissions of the same pair route
  /// identically without the caller managing handles.
  std::uint64_t route_key = 0;

  /// The operands in effect, shared and never copied on the serving path.
  /// Assigning an RleImage moves it into a new share; unset, an operand
  /// reads as the 0x0 image.
  SharedImage reference;
  SharedImage scan;
  ImageDiffOptions options;

  /// By-handle operands: a non-zero handle names an image registered in the
  /// router's ImageStore (handle = canonical fingerprint, see
  /// store/image_store.hpp) and replaces the operand above.  The router
  /// resolves each handle at submit, before it takes its lock, into the
  /// store's pinned parse (unknown handle = typed shed, kUnknownHandle);
  /// the pin lasts until the last dispatch copy of the request dies.
  ImageHandle ref_handle = 0;
  ImageHandle scan_handle = 0;

  /// Both operands have one size (the router and the service refuse others).
  bool same_size() const {
    const RleImage& a = reference.image();
    const RleImage& b = scan.image();
    return a.width() == b.width() && a.height() == b.height();
  }

  /// Inject this fault into every checked-engine row (tests, bench,
  /// campaign integration).  Setting it runs this request through the
  /// checked engine even when the service's checked mode is off.
  std::optional<FaultSpec> fault;

  /// Test hook: replaces the row engine exactly like
  /// StreamDiffer::set_engine_override.  It runs bare: a throw sends the
  /// row to StreamDiffer's sequential fallback.
  StreamDiffer::RowEngine engine_override;

  /// When false the per-row outputs are discarded (load benches that only
  /// measure latency).
  bool keep_diff = true;

  /// Observability identity (telemetry/request_context.hpp).  The shard
  /// router stamps it on every backend submission (client id, dispatch
  /// attempt, shard/replica); a standalone DiffService self-stamps an
  /// unrouted context at admission.  Spans and flight-recorder events
  /// recorded while the request runs carry this identity.
  RequestContext ctx;
};

/// What happened to one admitted request.  Exactly one response is
/// delivered per admitted request; submit-time rejections are returned
/// synchronously and produce no response.
struct ServiceResponse {
  enum class Status {
    kCompleted,  ///< every row computed (possibly via retry or fallback)
    kRejected,   ///< shed after admission; see reject_reason
    kFailed,     ///< some rows unrecovered (fallback disabled); diff partial
  };

  std::uint64_t id = 0;
  Priority priority = Priority::kBatch;
  Status status = Status::kCompleted;
  RejectReason reject_reason = RejectReason::kDeadlineExpired;  ///< kRejected

  RleImage diff{0, 0};  ///< rows processed so far (empty if !keep_diff)
  /// True when the router answered from the result cache: the payload is
  /// bit-identical to the original completion and no engine ran.
  bool from_cache = false;
  std::uint64_t rows_processed = 0;
  std::uint64_t fallback_rows = 0;     ///< rows served by sequential engine
  std::uint64_t unrecovered_rows = 0;  ///< rows nobody could compute

  double queue_us = 0.0;    ///< admission -> dequeue
  double service_us = 0.0;  ///< dequeue -> done
  double total_us = 0.0;    ///< admission -> done
};

/// Human-readable status name.
const char* to_string(ServiceResponse::Status status);

}  // namespace sysrle
