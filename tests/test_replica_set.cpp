// Tests for ReplicaSet: rendezvous preference, breaker-gated pick,
// quarantine + probe re-admission, and kill/revive semantics.

#include "service/replica_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <vector>

#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

ReplicaSetConfig small_config(std::size_t replicas) {
  ReplicaSetConfig cfg;
  cfg.replicas = replicas;
  cfg.service.workers = 1;
  return cfg;
}

ReplicaSet::CompletionFactory null_completions() {
  return [](std::size_t) -> DiffService::Completion { return nullptr; };
}

TEST(ReplicaSet, PreferenceIsAPermutationAndDeterministic) {
  ReplicaSet set(0, small_config(4), null_completions());
  for (std::uint64_t key : {1ull, 99ull, 0xdeadbeefull}) {
    const std::vector<std::size_t> order = set.preference(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()),
              (std::set<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(order, set.preference(key)) << "key " << key;
  }
}

TEST(ReplicaSet, PreferenceSpreadsKeysAcrossReplicas) {
  ReplicaSet set(1, small_config(3), null_completions());
  std::set<std::size_t> firsts;
  for (std::uint64_t key = 0; key < 64; ++key)
    firsts.insert(set.preference(key).front());
  // 64 keys over 3 replicas: every replica should lead for some key.
  EXPECT_EQ(firsts.size(), 3u);
}

TEST(ReplicaSet, PickSkipsQuarantinedReplicas) {
  ReplicaSet set(2, small_config(2), null_completions());
  const std::uint64_t key = 7;
  const std::vector<std::size_t> order = set.preference(key);

  // Trip the preferred replica's breaker; pick now avoids it.
  for (int i = 0; i < 3; ++i) set.record_failure(order.front(), 0);
  EXPECT_EQ(set.breaker_state(order.front()), BreakerState::kOpen);
  const auto picked = set.pick(key, 1);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(*picked, order[1]);
  set.release_probe(*picked);
}

TEST(ReplicaSet, AllQuarantinedAndProbeReadmission) {
  ReplicaSetConfig cfg = small_config(2);
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_duration = 1000;  // µs on the caller-supplied clock
  ReplicaSet set(3, cfg, null_completions());

  for (std::size_t r = 0; r < 2; ++r)
    for (int i = 0; i < 2; ++i) set.record_failure(r, 0);
  EXPECT_TRUE(set.all_quarantined(10));
  EXPECT_FALSE(set.pick(5, 10).has_value());

  // Past the open window the set is probeable again, not "down".
  EXPECT_FALSE(set.all_quarantined(2000));
  const auto probe = set.pick(5, 2000);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(set.breaker_state(*probe), BreakerState::kHalfOpen);
  set.record_success(*probe, 2001);
  EXPECT_EQ(set.breaker_state(*probe), BreakerState::kClosed);
}

TEST(ReplicaSet, KillShedsShutdownAndReviveRestoresService) {
  std::mutex mu;
  std::vector<ServiceResponse> responses;
  auto factory = [&](std::size_t) -> DiffService::Completion {
    return [&](ServiceResponse r) {
      std::lock_guard<std::mutex> lk(mu);
      responses.push_back(std::move(r));
    };
  };
  ReplicaSet set(4, small_config(1), factory);

  Rng rng(21);
  RowGenParams p;
  p.width = 128;
  ServiceRequest req;
  req.id = 1;
  req.reference = generate_image(rng, 4, p);
  req.scan = req.reference;

  set.kill(0);
  EXPECT_TRUE(set.killed(0));
  auto reason = set.replica(0)->try_submit(req);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, RejectReason::kShutdown);

  set.revive(0);
  EXPECT_FALSE(set.killed(0));
  req.id = 2;
  EXPECT_FALSE(set.replica(0)->try_submit(std::move(req)).has_value());
  set.drain();

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].id, 2u);
  EXPECT_EQ(responses[0].status, ServiceResponse::Status::kCompleted);

  const ServiceStats st = set.aggregate_stats();
  EXPECT_EQ(st.completed, 1u);
}

}  // namespace
}  // namespace sysrle
