// Tests for the bounded two-class admission queue.

#include "service/admission_queue.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {
namespace {

ServiceRequest request(std::uint64_t id, Priority priority) {
  ServiceRequest r;
  r.id = id;
  r.priority = priority;
  return r;
}

AdmissionConfig small_config(std::size_t interactive, std::size_t batch) {
  AdmissionConfig cfg;
  cfg.interactive_capacity = interactive;
  cfg.batch_capacity = batch;
  return cfg;
}

TEST(AdmissionQueue, PopsInteractiveBeforeBatchFifoWithinClass) {
  AdmissionQueue q(small_config(4, 4));
  EXPECT_FALSE(q.try_push(request(1, Priority::kBatch)).has_value());
  EXPECT_FALSE(q.try_push(request(2, Priority::kInteractive)).has_value());
  EXPECT_FALSE(q.try_push(request(3, Priority::kBatch)).has_value());
  EXPECT_FALSE(q.try_push(request(4, Priority::kInteractive)).has_value());
  q.close();
  std::vector<std::uint64_t> order;
  while (auto item = q.pop()) order.push_back(item->request.id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 1, 3}));
}

TEST(AdmissionQueue, RefusesWithQueueFullPerClass) {
  AdmissionQueue q(small_config(1, 2));
  EXPECT_FALSE(q.try_push(request(1, Priority::kInteractive)).has_value());
  const auto refused = q.try_push(request(2, Priority::kInteractive));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(*refused, RejectReason::kQueueFull);
  // The batch class has its own capacity: still admitted.
  EXPECT_FALSE(q.try_push(request(3, Priority::kBatch)).has_value());
  EXPECT_FALSE(q.try_push(request(4, Priority::kBatch)).has_value());
  const auto batch_refused = q.try_push(request(5, Priority::kBatch));
  ASSERT_TRUE(batch_refused.has_value());
  EXPECT_EQ(*batch_refused, RejectReason::kQueueFull);
  EXPECT_EQ(q.depth(), 3u);
}

TEST(AdmissionQueue, ClosedQueueRefusesWithShutdownAndDrains) {
  AdmissionQueue q(small_config(4, 4));
  EXPECT_FALSE(q.try_push(request(1, Priority::kBatch)).has_value());
  q.close();
  EXPECT_TRUE(q.closed());
  const auto refused = q.try_push(request(2, Priority::kBatch));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(*refused, RejectReason::kShutdown);
  // Drain contract: what was admitted is still served...
  auto item = q.pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->request.id, 1u);
  // ...then pop reports end-of-stream instead of blocking.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(AdmissionQueue, PopBlocksUntilWorkArrives) {
  AdmissionQueue q(small_config(4, 4));
  std::uint64_t got = 0;
  std::thread consumer([&] {
    auto item = q.pop();
    if (item) got = item->request.id;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(q.try_push(request(42, Priority::kBatch)).has_value());
  consumer.join();
  EXPECT_EQ(got, 42u);
}

TEST(AdmissionQueue, PublishesDepthGaugeBalanced) {
  reset_telemetry();
  set_telemetry_enabled(true);
  {
    AdmissionQueue q(small_config(4, 4));
    (void)q.try_push(request(1, Priority::kBatch));
    (void)q.try_push(request(2, Priority::kInteractive));
    EXPECT_EQ(global_metrics().snapshot().gauge("service.queue_depth", -1.0),
              2.0);
    q.close();
    while (q.pop().has_value()) {
    }
    EXPECT_EQ(global_metrics().snapshot().gauge("service.queue_depth", -1.0),
              0.0);
  }
  set_telemetry_enabled(false);
  reset_telemetry();
}

TEST(AdmissionQueue, RejectsInvalidConfig) {
  EXPECT_THROW(AdmissionQueue(small_config(0, 4)), contract_error);
  EXPECT_THROW(AdmissionQueue(small_config(4, 0)), contract_error);
}

TEST(AdmissionQueue, ToStringsCoverTheVocabulary) {
  EXPECT_STREQ(to_string(Priority::kInteractive), "interactive");
  EXPECT_STREQ(to_string(Priority::kBatch), "batch");
  EXPECT_STREQ(to_string(RejectReason::kQueueFull), "queue_full");
  EXPECT_STREQ(to_string(RejectReason::kDeadlineExpired), "deadline_expired");
  EXPECT_STREQ(to_string(RejectReason::kShutdown), "shutdown");
  EXPECT_STREQ(to_string(ServiceResponse::Status::kCompleted), "completed");
  EXPECT_STREQ(to_string(ServiceResponse::Status::kRejected), "rejected");
  EXPECT_STREQ(to_string(ServiceResponse::Status::kFailed), "failed");
}

}  // namespace
}  // namespace sysrle
