#include "service/admission_queue.hpp"

#include <utility>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
  }
  return "unknown";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadlineExpired:
      return "deadline_expired";
    case RejectReason::kShutdown:
      return "shutdown";
    case RejectReason::kShardDown:
      return "shard_down";
    case RejectReason::kUnknownHandle:
      return "unknown_handle";
  }
  return "unknown";
}

const char* to_string(ServiceResponse::Status status) {
  switch (status) {
    case ServiceResponse::Status::kCompleted:
      return "completed";
    case ServiceResponse::Status::kRejected:
      return "rejected";
    case ServiceResponse::Status::kFailed:
      return "failed";
  }
  return "unknown";
}

AdmissionQueue::AdmissionQueue(AdmissionConfig config) : config_(config) {
  SYSRLE_REQUIRE(config_.interactive_capacity >= 1 &&
                     config_.batch_capacity >= 1,
                 "AdmissionQueue: capacities must be >= 1");
}

void AdmissionQueue::publish_depth_locked() const {
  if (!telemetry_enabled()) return;
  // Aggregate plus per-class depth: hot-shard skew shows up as one class
  // backing up while the other stays shallow, which the aggregate hides.
  MetricsRegistry& m = global_metrics();
  m.set_gauge("service.queue_depth",
              static_cast<double>(interactive_.size() + batch_.size()));
  m.set_gauge("service.queue_depth.interactive",
              static_cast<double>(interactive_.size()));
  m.set_gauge("service.queue_depth.batch",
              static_cast<double>(batch_.size()));
}

std::optional<RejectReason> AdmissionQueue::try_push(ServiceRequest request) {
  std::lock_guard<std::mutex> lk(mu_);
  if (closed_) return RejectReason::kShutdown;

  std::deque<Item>& q =
      request.priority == Priority::kInteractive ? interactive_ : batch_;
  const std::size_t cap = request.priority == Priority::kInteractive
                              ? config_.interactive_capacity
                              : config_.batch_capacity;
  if (q.size() >= cap) return RejectReason::kQueueFull;

  q.push_back({std::move(request), std::chrono::steady_clock::now()});
  publish_depth_locked();
  cv_.notify_one();
  return std::nullopt;
}

std::optional<AdmissionQueue::Item> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] {
    return closed_ || !interactive_.empty() || !batch_.empty();
  });
  std::deque<Item>* q = nullptr;
  if (!interactive_.empty())
    q = &interactive_;
  else if (!batch_.empty())
    q = &batch_;
  if (q == nullptr) return std::nullopt;  // closed and drained
  Item item = std::move(q->front());
  q->pop_front();
  publish_depth_locked();
  return item;
}

void AdmissionQueue::close() {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return interactive_.size() + batch_.size();
}

}  // namespace sysrle
