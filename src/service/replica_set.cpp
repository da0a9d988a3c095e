#include "service/replica_set.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace sysrle {

namespace {

/// SplitMix64 finalizer: the rendezvous weight of (key, salt).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ReplicaSet::ReplicaSet(std::size_t shard_index, const ReplicaSetConfig& config,
                       const CompletionFactory& completion_for)
    : shard_index_(shard_index),
      config_(config),
      completion_for_(completion_for) {
  SYSRLE_REQUIRE(config.replicas >= 1,
                 "ReplicaSet: need at least one replica");
  replicas_.reserve(config.replicas);
  for (std::size_t r = 0; r < config.replicas; ++r) {
    auto rep = std::make_unique<Replica>(
        config.breaker, "shard" + std::to_string(shard_index) + ".replica" +
                            std::to_string(r));
    rep->salt = mix64(shard_index * 0x1000 + r + 0x5eed);
    rep->service =
        std::make_shared<DiffService>(config.service, completion_for_(r));
    replicas_.push_back(std::move(rep));
  }
}

std::vector<std::size_t> ReplicaSet::preference(std::uint64_t key) const {
  std::vector<std::pair<std::uint64_t, std::size_t>> weighted;
  weighted.reserve(replicas_.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t r = 0; r < replicas_.size(); ++r)
      weighted.emplace_back(mix64(key ^ replicas_[r]->salt), r);
  }
  std::sort(weighted.begin(), weighted.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::size_t> order;
  order.reserve(weighted.size());
  for (const auto& [w, r] : weighted) order.push_back(r);
  return order;
}

std::optional<std::size_t> ReplicaSet::pick(std::uint64_t key,
                                            std::uint64_t now) {
  const std::vector<std::size_t> order = preference(key);
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t r : order)
    if (replicas_[r]->breaker.allow(now)) return r;
  return std::nullopt;
}

std::shared_ptr<DiffService> ReplicaSet::replica(std::size_t index) const {
  std::lock_guard<std::mutex> lk(mu_);
  return replicas_.at(index)->service;
}

void ReplicaSet::record_success(std::size_t index, std::uint64_t now) {
  std::lock_guard<std::mutex> lk(mu_);
  replicas_.at(index)->breaker.record_success(now);
}

BreakerState ReplicaSet::record_failure(std::size_t index,
                                        std::uint64_t now) {
  std::lock_guard<std::mutex> lk(mu_);
  CircuitBreaker& breaker = replicas_.at(index)->breaker;
  breaker.record_failure(now);
  return breaker.state();
}

void ReplicaSet::release_probe(std::size_t index) {
  std::lock_guard<std::mutex> lk(mu_);
  replicas_.at(index)->breaker.release_probe();
}

BreakerState ReplicaSet::breaker_state(std::size_t index) const {
  std::lock_guard<std::mutex> lk(mu_);
  return replicas_.at(index)->breaker.state();
}

bool ReplicaSet::all_quarantined(std::uint64_t now) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& rep : replicas_) {
    const BreakerState s = rep->breaker.state();
    if (s == BreakerState::kClosed || s == BreakerState::kHalfOpen) return false;
    // Open but the window elapsed: a pick() would admit a probe.
    if (now >= rep->breaker.reopen_at()) return false;
  }
  return true;
}

void ReplicaSet::kill(std::size_t index) {
  std::shared_ptr<DiffService> service;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Replica& rep = *replicas_.at(index);
    rep.killed = true;
    service = rep.service;
  }
  // Drain outside the lock: it blocks on in-flight responses, and those
  // responses re-enter the router (which calls back into this set).
  service->drain();
}

void ReplicaSet::revive(std::size_t index) {
  auto replacement =
      std::make_shared<DiffService>(config_.service, completion_for_(index));
  std::shared_ptr<DiffService> old;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Replica& rep = *replicas_.at(index);
    old = std::exchange(rep.service, std::move(replacement));
    rep.killed = false;
    draining_.push_back(old);
  }
  old->drain();
  // Fold the drained service's final counters into the set's totals, in
  // the same step that stops summing it live: ServiceStats stay monotonic
  // across any number of revives.
  std::lock_guard<std::mutex> lk(mu_);
  retired_ += old->stats();
  draining_.erase(std::find(draining_.begin(), draining_.end(), old));
}

bool ReplicaSet::killed(std::size_t index) const {
  std::lock_guard<std::mutex> lk(mu_);
  return replicas_.at(index)->killed;
}

void ReplicaSet::drain() {
  std::vector<std::shared_ptr<DiffService>> services;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& rep : replicas_) services.push_back(rep->service);
  }
  for (const auto& s : services) s->drain();
}

ServiceStats ReplicaSet::aggregate_stats() const {
  std::vector<std::shared_ptr<DiffService>> services;
  ServiceStats total;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& rep : replicas_) services.push_back(rep->service);
    services.insert(services.end(), draining_.begin(), draining_.end());
    total = retired_;
  }
  for (const auto& svc : services) total += svc->stats();
  return total;
}

}  // namespace sysrle
