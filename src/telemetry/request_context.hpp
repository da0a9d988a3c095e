#pragma once
// RequestContext: the identity one serving request carries through every
// layer it touches.
//
// The paper's systolic array is analyzable because every cell's behaviour at
// every beat can be attributed; the serving stack regains that property by
// tagging each piece of work with *whose request* it is.  The ShardRouter
// stamps a context (client request id, dispatch attempt, shard/replica) onto
// every backend submission; the DiffService worker installs it on its thread
// for the duration of the request (RequestContextScope); and every span the
// engines record underneath — `stream.push_row`, `checked.row`,
// `service.request` — picks the context up from the thread automatically, so
// a trace can be filtered down to one request after the fact.
//
// The context is plain data: copying it is free, and an inactive context
// (the default) annotates nothing.

#include <cstdint>

namespace sysrle {

/// Identity of the request the current work belongs to.
struct RequestContext {
  /// True once a serving layer stamped this context; inactive contexts are
  /// never attached to spans or flight-recorder events.
  bool active = false;

  /// The *client-visible* request id (ServiceRequest::id as the caller set
  /// it) — stable across failover and waiter promotion, which is what
  /// makes one request's scattered work re-joinable.
  std::uint64_t request_id = 0;

  /// Dispatch ordinal within the request: 0 for the first backend
  /// submission, 1+ for failover re-submissions.
  std::uint32_t attempt = 0;

  /// Where this dispatch landed; -1 = not routed (standalone DiffService).
  std::int32_t shard = -1;
  std::int32_t replica = -1;

  friend bool operator==(const RequestContext&,
                         const RequestContext&) = default;
};

/// The context installed on the calling thread (inactive when none).
const RequestContext& current_request_context();

/// RAII: installs `ctx` as the calling thread's context for the scope and
/// restores the previous one on exit.  Scopes nest (a service worker inside
/// a bench inside a test each see their own).
class RequestContextScope {
 public:
  explicit RequestContextScope(const RequestContext& ctx);
  ~RequestContextScope();

  RequestContextScope(const RequestContextScope&) = delete;
  RequestContextScope& operator=(const RequestContextScope&) = delete;

 private:
  RequestContext saved_;
};

}  // namespace sysrle
