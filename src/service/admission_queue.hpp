#pragma once
// Bounded two-class admission queue: the front door of the serving layer.
//
// Overload protection starts here.  Each priority class has a hard
// capacity; a request that does not fit is refused *now*, with a typed
// reason, instead of growing an unbounded backlog that turns every later
// request into a deadline miss (the classic collapse mode).  The two classes
// have separate capacities, so a full batch queue never costs interactive
// work its headroom.
//
// Pop order: interactive strictly before batch, FIFO within a class.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "service/types.hpp"

namespace sysrle {

/// Queue shape: one hard capacity per class.
struct AdmissionConfig {
  std::size_t interactive_capacity = 64;
  std::size_t batch_capacity = 64;
};

/// Thread-safe bounded queue with typed refusal.
class AdmissionQueue {
 public:
  /// A queued request plus its admission timestamp (for queue-wait
  /// accounting).
  struct Item {
    ServiceRequest request;
    std::chrono::steady_clock::time_point enqueued;
  };

  explicit AdmissionQueue(AdmissionConfig config);

  /// Admits or refuses immediately (never blocks).  Returns std::nullopt on
  /// success, the typed reason otherwise.  Publishes
  /// "service.queue_depth" when telemetry is enabled.
  std::optional<RejectReason> try_push(ServiceRequest request);

  /// Blocks for the next item (interactive first).  Returns std::nullopt
  /// once the queue is closed *and* empty — the drain contract: queued work
  /// is finished, nothing new is admitted.
  std::optional<Item> pop();

  /// Closes the queue: try_push refuses with kShutdown, pop drains what is
  /// left.  Idempotent.
  void close();

  bool closed() const;
  std::size_t depth() const;

 private:
  void publish_depth_locked() const;

  AdmissionConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> interactive_;
  std::deque<Item> batch_;
  bool closed_ = false;
};

}  // namespace sysrle
