// Tests for RequestContext propagation: the thread-local scope (install,
// restore, nesting, per-thread isolation) and span annotation.

#include "telemetry/request_context.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {
namespace {

RequestContext make_ctx(std::uint64_t rid, std::uint32_t attempt = 0,
                        std::int32_t shard = -1, std::int32_t replica = -1) {
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = rid;
  ctx.attempt = attempt;
  ctx.shard = shard;
  ctx.replica = replica;
  return ctx;
}

class RequestContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_telemetry_enabled(false);
    reset_telemetry();
  }
  void TearDown() override {
    set_telemetry_enabled(false);
    reset_telemetry();
  }
};

TEST(RequestContext, InactiveByDefault) {
  EXPECT_FALSE(current_request_context().active);
  EXPECT_FALSE(RequestContext{}.active);
}

TEST(RequestContext, ScopeInstallsAndRestores) {
  const RequestContext ctx = make_ctx(42, 1, 2, 3);
  {
    RequestContextScope scope(ctx);
    EXPECT_EQ(current_request_context(), ctx);
    EXPECT_EQ(current_request_context().request_id, 42u);
    EXPECT_EQ(current_request_context().shard, 2);
  }
  EXPECT_FALSE(current_request_context().active);
}

TEST(RequestContext, ScopesNestAndUnwindInOrder) {
  // Request id 0 is a valid id — the explicit `active` flag, not a sentinel
  // id, distinguishes "no context".
  const RequestContext outer = make_ctx(0);
  const RequestContext inner = make_ctx(7, 2);
  RequestContextScope outer_scope(outer);
  EXPECT_EQ(current_request_context(), outer);
  {
    RequestContextScope inner_scope(inner);
    EXPECT_EQ(current_request_context(), inner);
  }
  EXPECT_EQ(current_request_context(), outer);
  EXPECT_TRUE(current_request_context().active);
  EXPECT_EQ(current_request_context().request_id, 0u);
}

TEST(RequestContext, ContextIsPerThread) {
  RequestContextScope scope(make_ctx(11));
  RequestContext seen_in_thread = make_ctx(99);
  std::thread([&seen_in_thread] {
    seen_in_thread = current_request_context();
  }).join();
  EXPECT_FALSE(seen_in_thread.active)
      << "another thread must not inherit this thread's context";
  EXPECT_EQ(current_request_context().request_id, 11u);
}

// ---------------------------------------------------------- span annotation

TEST_F(RequestContextTest, SpansRecordTheActiveContext) {
  set_telemetry_enabled(true);
  {
    RequestContextScope scope(make_ctx(1731, 1, 0, 1));
    TELEMETRY_SPAN("annotated");
  }
  {
    TELEMETRY_SPAN("unannotated");
  }
  const std::vector<SpanEvent> events = global_tracer().snapshot();
  ASSERT_EQ(events.size(), 2u);
  const SpanEvent& annotated =
      std::string(events[0].label()) == "annotated" ? events[0] : events[1];
  const SpanEvent& unannotated =
      std::string(events[0].label()) == "annotated" ? events[1] : events[0];
  EXPECT_TRUE(annotated.ctx.active);
  EXPECT_EQ(annotated.ctx.request_id, 1731u);
  EXPECT_EQ(annotated.ctx.attempt, 1u);
  EXPECT_EQ(annotated.ctx.shard, 0);
  EXPECT_EQ(annotated.ctx.replica, 1);
  EXPECT_FALSE(unannotated.ctx.active);
}

}  // namespace
}  // namespace sysrle
