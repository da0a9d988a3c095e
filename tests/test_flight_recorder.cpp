// Tests for the flight recorder: lock-free ring semantics (ordering, wrap,
// torn-read rejection), per-request timelines, anomaly retention bounds,
// the JSONL / Chrome-trace exporters (including golden dumps of a failover
// story pinned byte-for-byte), and a concurrent writer/snapshot hammer that CI
// runs under TSan.

#include "telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/exporters.hpp"
#include "test_util.hpp"

namespace sysrle {
namespace {

using testing::JsonValue;
using testing::parse_json;

RequestContext ctx_of(std::uint64_t rid, std::uint32_t attempt = 0,
                      std::int32_t shard = -1, std::int32_t replica = -1) {
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = rid;
  ctx.attempt = attempt;
  ctx.shard = shard;
  ctx.replica = replica;
  return ctx;
}

/// Tests install/remove the global recorder; make sure no test leaks one.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override { set_flight_recorder(nullptr); }
};

// -------------------------------------------------------------------- ring

TEST(FlightRecorder, RecordsEventsInSeqOrderWithFullPayload) {
  FlightRecorder fr(128);
  fr.record(FlightEventKind::kAdmit, ctx_of(7), "primary");
  fr.record(FlightEventKind::kDispatch, ctx_of(7, 0, 1, 0), "primary", 42);
  fr.record(FlightEventKind::kRespond, ctx_of(7), "completed", 1234);

  const std::vector<FlightEvent> events = fr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kAdmit);
  EXPECT_STREQ(events[0].detail, "primary");
  EXPECT_TRUE(events[1].ctx.active);
  EXPECT_EQ(events[1].ctx.request_id, 7u);
  EXPECT_EQ(events[1].ctx.shard, 1);
  EXPECT_EQ(events[1].ctx.replica, 0);
  EXPECT_EQ(events[1].arg, 42u);
  EXPECT_EQ(events[2].kind, FlightEventKind::kRespond);
  EXPECT_LE(events[0].ts_us, events[2].ts_us);
  EXPECT_EQ(fr.recorded(), 3u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwoMinimum64) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(65).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(1 << 10).capacity(), std::size_t{1} << 10);
}

TEST(FlightRecorder, RingWrapsOverwritingOldestAndCountsDrops) {
  FlightRecorder fr(64);  // the minimum ring
  for (std::uint64_t i = 0; i < 100; ++i)
    fr.record(FlightEventKind::kAdmit, ctx_of(i), "", i);

  EXPECT_EQ(fr.recorded(), 100u);
  EXPECT_EQ(fr.dropped(), 36u);
  const std::vector<FlightEvent> events = fr.snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Only the newest 64 survive, still in seq order.
  EXPECT_EQ(events.front().seq, 36u);
  EXPECT_EQ(events.back().seq, 99u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 36u + i);
    EXPECT_EQ(events[i].ctx.request_id, 36u + i);
  }
}

TEST(FlightRecorder, TimelineFiltersOneRequestOutOfTheRing) {
  FlightRecorder fr(128);
  fr.record(FlightEventKind::kAdmit, ctx_of(1));
  fr.record(FlightEventKind::kAdmit, ctx_of(2));
  fr.record(FlightEventKind::kDispatch, ctx_of(1, 0, 0, 0));
  fr.record(FlightEventKind::kRespond, ctx_of(2), "completed");
  fr.record(FlightEventKind::kRespond, ctx_of(1), "completed");
  // Inactive contexts never join any timeline.
  fr.record(FlightEventKind::kBreakerTrip, RequestContext{}, "service");

  const std::vector<FlightEvent> one = fr.timeline(1);
  ASSERT_EQ(one.size(), 3u);
  EXPECT_EQ(one[0].kind, FlightEventKind::kAdmit);
  EXPECT_EQ(one[1].kind, FlightEventKind::kDispatch);
  EXPECT_EQ(one[2].kind, FlightEventKind::kRespond);
  EXPECT_TRUE(fr.timeline(99).empty());
}

TEST(FlightRecorder, KindNamesAreSnakeCase) {
  EXPECT_STREQ(to_string(FlightEventKind::kAdmit), "admit");
  EXPECT_STREQ(to_string(FlightEventKind::kBreakerTrip), "breaker_trip");
  EXPECT_STREQ(to_string(FlightEventKind::kCoalescePromoted),
               "coalesce_promoted");
  EXPECT_STREQ(to_string(FlightEventKind::kDeadlineExpired),
               "deadline_expired");
  EXPECT_STREQ(to_string(FlightEventKind::kRespond), "respond");
}

// --------------------------------------------------------------- retention

TEST(FlightRecorder, RetainCopiesTimelineOutOfTheRing) {
  FlightRecorder fr(64);
  fr.record(FlightEventKind::kAdmit, ctx_of(5));
  fr.record(FlightEventKind::kShed, ctx_of(5), "queue_full");
  fr.retain(5, "shed");
  // The ring wraps far past request 5; the retained copy must survive.
  for (std::uint64_t i = 0; i < 200; ++i)
    fr.record(FlightEventKind::kAdmit, ctx_of(1000 + i));

  EXPECT_TRUE(fr.timeline(5).empty()) << "ring view overwritten";
  const std::vector<FlightRecorder::RetainedTimeline> kept = fr.retained();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].request_id, 5u);
  EXPECT_EQ(kept[0].anomaly, "shed");
  ASSERT_EQ(kept[0].events.size(), 2u);
  EXPECT_EQ(kept[0].events[1].kind, FlightEventKind::kShed);
}

TEST(FlightRecorder, RepeatedRetainKeepsLongerViewAndFirstAnomaly) {
  FlightRecorder fr(128);
  fr.record(FlightEventKind::kAdmit, ctx_of(9));
  fr.retain(9, "first");
  fr.record(FlightEventKind::kRespond, ctx_of(9), "completed");
  fr.retain(9, "second");

  const std::vector<FlightRecorder::RetainedTimeline> kept = fr.retained();
  ASSERT_EQ(kept.size(), 1u) << "same request retains once";
  EXPECT_EQ(kept[0].anomaly, "first");
  EXPECT_EQ(kept[0].events.size(), 2u) << "longer view wins";
}

TEST(FlightRecorder, RetainedSetIsBoundedAndRefusalsAreCounted) {
  FlightRecorder fr(128, /*max_retained=*/2);
  for (std::uint64_t rid = 1; rid <= 4; ++rid) {
    fr.record(FlightEventKind::kAdmit, ctx_of(rid));
    fr.retain(rid, "anomaly");
  }
  EXPECT_EQ(fr.retained().size(), 2u);
  EXPECT_EQ(fr.retain_dropped(), 2u);
  // A refused request's id never entered the set.
  for (const auto& t : fr.retained()) EXPECT_LE(t.request_id, 2u);
}

// ------------------------------------------------------------- global hook

TEST_F(FlightRecorderTest, GlobalHookIsNullByDefaultAndRecordsWhenInstalled) {
  EXPECT_EQ(flight_recorder(), nullptr);
  flight_record(FlightEventKind::kAdmit, ctx_of(1));  // no-op, no crash
  flight_retain(1, "nothing");

  FlightRecorder fr(64);
  set_flight_recorder(&fr);
  EXPECT_EQ(flight_recorder(), &fr);
  flight_record(FlightEventKind::kAdmit, ctx_of(1), "primary");
  flight_retain(1, "anomaly");
  set_flight_recorder(nullptr);
  flight_record(FlightEventKind::kAdmit, ctx_of(2));  // after removal: no-op

  EXPECT_EQ(fr.recorded(), 1u);
  ASSERT_EQ(fr.retained().size(), 1u);
  EXPECT_EQ(fr.retained()[0].request_id, 1u);
}

// ---------------------------------------------------------------- exporters

/// The deterministic failover story used by the golden dumps, in the order
/// the router records it: the preferred replica (killed) sheds attempt 0
/// (retained as "shed"), that shed trips its breaker (re-retained, longer
/// view, first label kept), attempt 1 lands on the sibling replica as a
/// failover, the router admits, and the client gets its response.
void record_failover(FlightRecorder& fr) {
  fr.record_at(10, FlightEventKind::kShed, ctx_of(3, 0, 0, 0), "shutdown");
  fr.retain(3, "shed");
  fr.record_at(11, FlightEventKind::kBreakerTrip, ctx_of(3, 0, 0, 0),
               "shutdown");
  fr.retain(3, "breaker_trip");
  fr.record_at(12, FlightEventKind::kDispatch, ctx_of(3, 1, 0, 1), "primary",
               3);
  fr.record_at(13, FlightEventKind::kFailover, ctx_of(3, 1, 0, 1),
               "in_shard");
  fr.record_at(14, FlightEventKind::kAdmit, ctx_of(3), "primary");
  fr.record_at(45, FlightEventKind::kRespond, ctx_of(3), "completed", 31);
}

TEST(FlightRecorder, GoldenFailoverJsonl) {
  FlightRecorder fr(64, 4);
  record_failover(fr);
  std::ostringstream os;
  write_flight_jsonl(fr, os);

  // The retained timeline is the view at the breaker trip: retention
  // copies what the ring holds for the request at that moment.
  const std::string expected =
      "{\"type\":\"header\",\"schema\":\"sysrle.flight.v1\",\"capacity\":64,"
      "\"recorded\":6,\"dropped\":0,\"retained\":1,\"retain_dropped\":0}\n"
      "{\"type\":\"event\",\"seq\":0,\"ts_us\":10,\"kind\":\"shed\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":0,"
      "\"replica\":0,\"detail\":\"shutdown\",\"arg\":0}\n"
      "{\"type\":\"event\",\"seq\":1,\"ts_us\":11,\"kind\":\"breaker_trip\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":0,"
      "\"replica\":0,\"detail\":\"shutdown\",\"arg\":0}\n"
      "{\"type\":\"event\",\"seq\":2,\"ts_us\":12,\"kind\":\"dispatch\","
      "\"active\":true,\"request_id\":3,\"attempt\":1,\"shard\":0,"
      "\"replica\":1,\"detail\":\"primary\",\"arg\":3}\n"
      "{\"type\":\"event\",\"seq\":3,\"ts_us\":13,\"kind\":\"failover\","
      "\"active\":true,\"request_id\":3,\"attempt\":1,\"shard\":0,"
      "\"replica\":1,\"detail\":\"in_shard\",\"arg\":0}\n"
      "{\"type\":\"event\",\"seq\":4,\"ts_us\":14,\"kind\":\"admit\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":-1,"
      "\"replica\":-1,\"detail\":\"primary\",\"arg\":0}\n"
      "{\"type\":\"event\",\"seq\":5,\"ts_us\":45,\"kind\":\"respond\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":-1,"
      "\"replica\":-1,\"detail\":\"completed\",\"arg\":31}\n"
      "{\"type\":\"retained\",\"request_id\":3,\"anomaly\":\"shed\","
      "\"events\":[{\"seq\":0,\"ts_us\":10,\"kind\":\"shed\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":0,"
      "\"replica\":0,\"detail\":\"shutdown\",\"arg\":0},"
      "{\"seq\":1,\"ts_us\":11,\"kind\":\"breaker_trip\",\"active\":true,"
      "\"request_id\":3,\"attempt\":0,\"shard\":0,\"replica\":0,"
      "\"detail\":\"shutdown\",\"arg\":0}]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(FlightRecorder, GoldenFailoverChromeTrace) {
  FlightRecorder fr(64);
  record_failover(fr);
  std::ostringstream os;
  write_flight_chrome_trace(fr, os);

  const JsonValue root = parse_json(os.str());
  EXPECT_EQ(root.at("otherData").at("schema").string, "sysrle.flight.v1");
  EXPECT_DOUBLE_EQ(root.at("otherData").at("recorded").number, 6.0);

  // One instant per event on its lane — tid 1 is shard 0 replica 0, tid 2
  // shard 0 replica 1, tid 0 the unrouted client — so the failover reads as
  // the request moving from the killed replica's lane to its sibling's.
  // Only the process-name metadata event rides along; there are no flows.
  std::vector<std::string> lines;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").string == "M") continue;
    EXPECT_EQ(e.at("ph").string, "i");
    EXPECT_EQ(e.at("cat").string, "flight");
    const JsonValue& args = e.at("args");
    EXPECT_DOUBLE_EQ(args.at("request_id").number, 3.0);
    std::ostringstream line;
    line << e.at("name").string << " tid=" << e.at("tid").number
         << " ts=" << e.at("ts").number << " seq=" << args.at("seq").number
         << " attempt=" << args.at("attempt").number << " detail="
         << args.at("detail").string << " arg=" << args.at("arg").number;
    lines.push_back(line.str());
  }
  const std::vector<std::string> expected = {
      "shed tid=1 ts=10 seq=0 attempt=0 detail=shutdown arg=0",
      "breaker_trip tid=1 ts=11 seq=1 attempt=0 detail=shutdown arg=0",
      "dispatch tid=2 ts=12 seq=2 attempt=1 detail=primary arg=3",
      "failover tid=2 ts=13 seq=3 attempt=1 detail=in_shard arg=0",
      "admit tid=0 ts=14 seq=4 attempt=0 detail=primary arg=0",
      "respond tid=0 ts=45 seq=5 attempt=0 detail=completed arg=31",
  };
  EXPECT_EQ(lines, expected);
}

TEST(FlightRecorder, JsonlLinesParseIndividually) {
  FlightRecorder fr(64);
  record_failover(fr);
  std::ostringstream os;
  write_flight_jsonl(fr, os);

  std::istringstream in(os.str());
  std::string line;
  std::size_t events = 0, retained = 0;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue header = parse_json(line);
  EXPECT_EQ(header.at("type").string, "header");
  EXPECT_EQ(header.at("schema").string, "sysrle.flight.v1");
  EXPECT_DOUBLE_EQ(header.at("recorded").number, 6.0);
  while (std::getline(in, line)) {
    const JsonValue v = parse_json(line);
    if (v.at("type").string == "event") ++events;
    if (v.at("type").string == "retained") ++retained;
  }
  EXPECT_EQ(events, 6u);
  EXPECT_EQ(retained, 1u);
}

TEST(FlightRecorder, EmptyRecorderExportsHeaderOnly) {
  FlightRecorder fr(64);
  std::ostringstream os;
  write_flight_jsonl(fr, os);
  const std::string dump = os.str();
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 1);
  const JsonValue header = parse_json(dump.substr(0, dump.size() - 1));
  EXPECT_DOUBLE_EQ(header.at("recorded").number, 0.0);
  EXPECT_DOUBLE_EQ(header.at("retained").number, 0.0);
}

// ----------------------------------------------------- thread safety (TSan)

TEST(FlightRecorder, ConcurrentWritersAndSnapshotsStayCoherent) {
  // Exercised under -fsanitize=thread in CI: writers hammer a small ring
  // (constant wrapping) while readers snapshot, take timelines, and retain.
  FlightRecorder fr(256);
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};

  std::thread reader([&] {
    while (!stop.load()) {
      const std::vector<FlightEvent> events = fr.snapshot();
      std::uint64_t prev = 0;
      bool first = true;
      for (const FlightEvent& e : events) {
        if (!first) {
          EXPECT_GT(e.seq, prev) << "snapshot must be seq-sorted";
        }
        prev = e.seq;
        first = false;
        // Payload coherence: every surviving event carries the request id
        // its writer stamped (writer w uses rid = w * 1000000 + i).
        EXPECT_EQ(e.arg, e.ctx.request_id);
      }
      (void)fr.timeline(1000000);
      fr.retain(1000000, "hammer");
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kWriters) {
      }
      for (int i = 0; i < kEventsPerWriter; ++i) {
        const std::uint64_t rid =
            static_cast<std::uint64_t>(w) * 1000000 + static_cast<std::uint64_t>(i);
        fr.record(FlightEventKind::kAdmit, ctx_of(rid, 0, w, 0), "hammer",
                  rid);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(fr.recorded(),
            static_cast<std::uint64_t>(kWriters) * kEventsPerWriter);
  EXPECT_EQ(fr.dropped(),
            static_cast<std::uint64_t>(kWriters) * kEventsPerWriter - 256);
  EXPECT_EQ(fr.snapshot().size(), 256u);
}

}  // namespace
}  // namespace sysrle
