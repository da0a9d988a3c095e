#pragma once
// One shard's replica group: R identical DiffService backends behind
// router-level per-replica circuit breakers.
//
// The paper's array tolerates a dead cell because work is spread over many
// identical units; this is the same property one level up.  Each replica is
// an independent DiffService (own queue, own workers); the ReplicaSet adds
// what the router needs to survive a replica dying:
//
//   preference   rendezvous hashing (highest-random-weight) orders replicas
//                per key, so one key always prefers the same replica while a
//                dead replica's keys spread *evenly* over the survivors
//                instead of piling onto one neighbour;
//   quarantine   a router-level breaker per replica (the only breaker on
//                the serving path) trips after consecutive sheds or kFailed
//                responses, removing the replica from every key's
//                preference order until a half-open probe succeeds
//                (probe re-admission) — "keeps shedding" is a health signal
//                here even though each shed was a correct local decision;
//   kill/revive  bench and test hook: kill() drains the replica in place
//                (it refuses everything with kShutdown, exactly like a
//                crashed process whose connections reset), revive() installs
//                a fresh DiffService so probes can succeed again.
//
// Thread-safety: pick/record/breaker methods are locked internally;
// DiffService handles its own concurrency.  Callers must pair every
// successful pick() with exactly one record_success / record_failure /
// release_probe for that replica (the breaker half-open slot contract).

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/circuit_breaker.hpp"
#include "service/service.hpp"

namespace sysrle {

struct ReplicaSetConfig {
  std::size_t replicas = 2;
  /// Per-replica DiffService shape (queue caps, workers...).
  ServiceConfig service;
  /// Router-level breaker tripped by consecutive sheds/failures; clocked in
  /// microseconds of router uptime.
  BreakerPolicy breaker{.failure_threshold = 3, .open_duration = 50000};
};

/// R replicas of one shard.
class ReplicaSet {
 public:
  /// `completion_for(r)` builds the response callback wired into replica
  /// `r`'s DiffService (the router tags responses with their origin this
  /// way).  `shard_index` seeds per-replica hashing salts and breaker
  /// metric names ("shard<S>.replica<R>").
  using CompletionFactory =
      std::function<DiffService::Completion(std::size_t replica)>;

  ReplicaSet(std::size_t shard_index, const ReplicaSetConfig& config,
             const CompletionFactory& completion_for);

  std::size_t size() const { return replicas_.size(); }

  /// Replica indices in preference order for `key` (rendezvous hashing,
  /// deterministic per key). Ignores health — pick() applies the breakers.
  std::vector<std::size_t> preference(std::uint64_t key) const;

  /// First replica in `key`'s preference order whose breaker admits work at
  /// `now`.  Consumes a half-open probe slot when the chosen breaker is
  /// probing — pair with record_*/release_probe.  nullopt: every replica is
  /// quarantined — the shard is down.
  std::optional<std::size_t> pick(std::uint64_t key, std::uint64_t now);

  /// The backend for submissions.  The returned pointer stays valid across
  /// kill/revive (callers hold the shared_ptr).
  std::shared_ptr<DiffService> replica(std::size_t index) const;

  void record_success(std::size_t index, std::uint64_t now);
  /// Returns the breaker's state *after* the failure, so the caller can
  /// observe the closed->open transition (flight-recorder breaker_trip).
  BreakerState record_failure(std::size_t index, std::uint64_t now);
  void release_probe(std::size_t index);

  BreakerState breaker_state(std::size_t index) const;

  /// True when every replica's breaker refuses work at `now` (degraded
  /// mode: batch sheds shard_down, interactive fails over cross-shard).
  /// Read-only: consumes no probe slots.
  bool all_quarantined(std::uint64_t now) const;

  /// Drains the replica in place: every later submission to it sheds with
  /// kShutdown (the router's breaker then quarantines it).  In-flight and
  /// queued work still completes — a kill is never a silent drop.
  void kill(std::size_t index);
  /// Installs a fresh DiffService so the next half-open probe can succeed.
  void revive(std::size_t index);
  bool killed(std::size_t index) const;

  /// Drains every replica (waits for all in-flight responses).
  void drain();

  /// Sums replica-level ServiceStats across the set, including the final
  /// counters of every service a revive() retired, so the totals never go
  /// backwards.
  ServiceStats aggregate_stats() const;

 private:
  struct Replica {
    std::shared_ptr<DiffService> service;
    CircuitBreaker breaker;
    std::uint64_t salt = 0;  ///< rendezvous weight salt
    bool killed = false;

    Replica(BreakerPolicy policy, std::string name)
        : breaker(policy, std::move(name)) {}
  };

  std::size_t shard_index_;
  ReplicaSetConfig config_;
  CompletionFactory completion_for_;
  mutable std::mutex mu_;  ///< guards breakers + service pointers
  std::vector<std::unique_ptr<Replica>> replicas_;
  /// Services revive() replaced that are still draining, summed live, and
  /// the final stats of those that finished (both under mu_).
  std::vector<std::shared_ptr<DiffService>> draining_;
  ServiceStats retired_;
};

}  // namespace sysrle
