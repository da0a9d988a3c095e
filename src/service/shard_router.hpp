#pragma once
// ShardRouter: the replicated, failover-capable front door of the farm.
//
// DiffService protects one process from overload; the router makes *loss of
// a backend* invisible, the way the paper's array keeps computing when work
// is spread over many identical cells.  It consistent-hashes request route
// keys (image handles) over N shards of R replicas each and layers three
// mechanisms on top (docs/ROBUSTNESS.md, "Sharded serving and failover"):
//
//   failover     per-replica circuit breakers at the router (ReplicaSet),
//                the serving path's only breakers, quarantine a replica
//                that keeps shedding or failing (kFailed responses); its
//                keys route to the next replica in rendezvous order, and a
//                half-open probe re-admits it when it recovers.  Failover
//                is synchronous inside the submission, so every admitted
//                call has at most one backend dispatch in flight and the
//                router runs no thread of its own;
//   dedup        identical diffs (same operands, same engine) share one
//                computation through one single-flight table (ResultCache):
//                an in-flight duplicate joins as a waiter and gets a
//                bit-identical copy of the primary's response, a typed copy
//                of its failure, or — when the primary's own deadline
//                expired but a waiter's still holds — promotion: the waiter
//                re-dispatches as the new primary.  With a cache
//                configured, a by-handle completion stays resident and a
//                later duplicate is answered from it;
//   degraded     when every replica of a shard is quarantined, batch
//                traffic sheds with typed kShardDown and interactive
//                traffic fails over cross-shard to the next shard on the
//                ring.
//
// Accounting contract (bench_overload asserts it across a replica kill):
// every offered request gets exactly one client-visible outcome — a typed
// synchronous rejection from try_submit, or exactly one delivered
// ServiceResponse.  Never both, never neither, no matter which replicas
// die mid-flight.
//
// Counts live only in RouterStats.  The metrics registry carries the
// per-replica service.breaker_state.shard<S>.replica<R> gauges
// (docs/OBSERVABILITY.md).

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "service/replica_set.hpp"
#include "service/service.hpp"
#include "service/types.hpp"
#include "store/image_store.hpp"
#include "store/result_cache.hpp"

namespace sysrle {

struct RouterConfig {
  std::size_t shards = 2;
  std::size_t replicas = 2;

  /// Per-replica backend shape.
  ServiceConfig replica_service;
  /// Router-level per-replica breaker (clocked in µs of router uptime).
  BreakerPolicy replica_breaker{.failure_threshold = 3,
                                .open_duration = 50000};

  /// Persistent image store for by-handle requests (ServiceRequest::
  /// ref_handle/scan_handle).  Null: by-handle requests shed with
  /// kUnknownHandle.  Shared so the caller can register images and read
  /// store stats alongside the router.
  std::shared_ptr<ImageStore> store;
  /// The single-flight result table, keeping completed by-handle diffs
  /// resident — their operand identity is the store fingerprint, already
  /// verified.  Null: the router keeps a private table that only dedups
  /// in-flight work, and every request that does not join one runs an
  /// engine.
  std::shared_ptr<ResultCache> cache;

  /// Seeds the consistent-hash ring's points.
  std::uint64_t seed = 42;
};

/// Monotonic counters over the router lifetime.  Result-cache hits, misses
/// and stores are the cache's own CacheStats.
struct RouterStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;  ///< offered - synchronous sheds

  // Synchronous sheds (try_submit returned a reason; no response follows).
  std::uint64_t shed_shutdown = 0;
  std::uint64_t shed_deadline_at_submit = 0;
  std::uint64_t shed_shard_down = 0;
  std::uint64_t shed_unknown_handle = 0;  ///< by-handle operand not resident

  // Delivered client responses by status.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;  ///< kRejected responses (deadline/shard_down)

  std::uint64_t failovers = 0;  ///< dispatches not on the preferred replica
  std::uint64_t cross_shard_failovers = 0;

  /// Always 0; kept for the benchmark schema.
  std::uint64_t hedges_fired = 0;
  /// Always 0; kept for the benchmark schema.
  std::uint64_t hedges_won = 0;
  /// Always 0; kept for the benchmark schema.
  std::uint64_t hedges_suppressed = 0;

  std::uint64_t coalesced = 0;  ///< requests attached as waiters
  std::uint64_t coalesce_promotions = 0;
  std::uint64_t coalesce_collisions = 0;  ///< in-flight key, other operands
  std::uint64_t waiter_deadline_sheds = 0;

  std::uint64_t responses() const { return completed + failed + rejected; }
  std::uint64_t shed_submit_total() const {
    return shed_shutdown + shed_deadline_at_submit + shed_shard_down +
           shed_unknown_handle;
  }
  /// The zero-silent-drops identity.
  bool accounted() const {
    return offered == admitted + shed_submit_total() &&
           responses() == admitted;
  }
};

/// Routes requests over shards × replicas of in-process DiffServices.
class ShardRouter {
 public:
  using Completion = std::function<void(ServiceResponse)>;

  ShardRouter(RouterConfig config, Completion on_complete);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Admits, joins an identical in-flight diff, answers from the cache, or
  /// sheds.  std::nullopt: exactly one response will be delivered later.
  /// A returned reason is final — no response follows.
  std::optional<RejectReason> try_submit(ServiceRequest request);

  /// Stops admitting, finishes all in-flight work on every replica,
  /// delivers every pending response (including waiters).  Idempotent.
  void drain();

  RouterStats stats() const;
  /// Sum of backend DiffService stats across every replica, including the
  /// services a revive_replica() retired (monotonic, like ServiceStats).
  ServiceStats backend_stats() const;

  /// The routing key try_submit would use for `request`.
  static std::uint64_t route_key_of(const ServiceRequest& request);
  /// Ring lookup (stable for the router's lifetime).
  std::size_t shard_of(std::uint64_t key) const;
  std::size_t shards() const { return sets_.size(); }
  std::size_t replicas() const { return config_.replicas; }

  BreakerState replica_breaker_state(std::size_t shard,
                                     std::size_t replica) const;
  /// Closed / half-open replica breakers across the fleet.
  std::size_t healthy_replicas() const;

  /// Fault-injection hooks (bench_overload's kill-a-replica phase, tests).
  void kill_replica(std::size_t shard, std::size_t replica);
  void revive_replica(std::size_t shard, std::size_t replica);

 private:
  struct Waiter {
    ServiceRequest request;
    std::chrono::steady_clock::time_point arrived;
  };

  /// One admitted client request and its single backend dispatch.  The
  /// call id doubles as the backend request id, so a replica response finds
  /// its call directly.
  struct Call {
    std::uint64_t call_id = 0;
    ServiceRequest request;  ///< client's original
    std::chrono::steady_clock::time_point accepted;
    std::uint64_t key = 0;
    std::size_t home_shard = 0;

    /// Owner of the pending result-table entry under `result_key` (false:
    /// the call runs unregistered — a hooked request, or admit() returned
    /// kCollision/kBypass).
    bool registered = false;
    ResultKey result_key;
    std::vector<Waiter> waiters;

    /// Dispatch ordinal source: attempt 0 is the first backend submission,
    /// 1+ are failover re-submissions (RequestContext::attempt).
    std::uint32_t dispatch_count = 0;
    /// Context stamped on the admitted backend submission (client id +
    /// attempt + shard/replica): flight events name where the work landed.
    RequestContext dispatch_ctx;
  };

  /// One client-visible delivery, built under the lock, invoked outside it.
  struct Delivery {
    ServiceResponse response;
  };

  std::uint64_t now_us() const;

  /// try_submit's body, under the lock, on resolved operands.
  std::optional<RejectReason> submit_locked(ServiceRequest request,
                                            bool unknown_handle,
                                            std::vector<Delivery>& out);

  /// Dispatches `call`'s request to its home shard (failing over across its
  /// replicas, then — for interactive — across shards).  Returns the shed
  /// reason when no backend admitted it.  Lock held.
  std::optional<RejectReason> dispatch_locked(
      const std::shared_ptr<Call>& call);

  /// One replica-level submission attempt.  True = admitted.
  bool submit_to_replica_locked(const std::shared_ptr<Call>& call,
                                std::size_t shard, std::size_t replica);

  void on_replica_response(std::size_t shard, std::size_t replica,
                           ServiceResponse response);

  /// Finishes `call` with its backend response; fans out to waiters,
  /// promotes on deadline expiry, completes or releases its result-table
  /// entry.  Lock held; deliveries collected.
  void finish_call_locked(const std::shared_ptr<Call>& call,
                          ServiceResponse result, std::vector<Delivery>& out);

  void deliver(std::vector<Delivery>& deliveries);

  RouterConfig config_;
  Completion on_complete_;
  std::chrono::steady_clock::time_point epoch_;

  std::vector<std::unique_ptr<ReplicaSet>> sets_;
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;  ///< sorted

  /// config_.cache, or a private table when none is configured.
  std::shared_ptr<ResultCache> results_;

  mutable std::mutex mu_;
  /// Calls with a backend dispatch in flight, by call id.
  std::unordered_map<std::uint64_t, std::shared_ptr<Call>> calls_;
  std::uint64_t next_call_id_ = 1;
  bool draining_ = false;

  // Stats (under mu_).
  RouterStats stats_;
};

}  // namespace sysrle
