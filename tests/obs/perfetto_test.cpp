// The Perfetto (Chrome trace-event) exporter: schema guarantees every
// event carries, the exact golden format of a span line, and the
// parse_perfetto round trip the offline analyzer depends on.

#include "obs/trace_writer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json_read.hpp"
#include "obs/trace_analysis.hpp"

namespace ers::obs {
namespace {

/// A small session exercising every corner of the schema: spans, instants,
/// node/arg payloads, the sentinel omissions, and the engine track.
TraceSession make_session() {
  TraceSession s(2, 64);
  s.worker(0).span(EventKind::kComputeSpan, 1000, 2500, /*node=*/42);
  s.worker(0).instant(EventKind::kTtProbe, 900, 42, /*arg=*/3);
  s.worker(1).span(EventKind::kLockWaitSpan, 0, 450);
  s.worker(1).instant(EventKind::kWakeup, 500, 7, /*arg=*/0);
  s.engine_tracer().instant(EventKind::kUnitCommit, 2600, 42, 17);
  return s;
}

TEST(PerfettoWriter, EveryEventCarriesTheRequiredKeys) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const TraceSession s = make_session();
  JsonValue root;
  ASSERT_TRUE(parse_json(perfetto_json(s), root));
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 5 recorded events + process_name + 2 worker thread_names + engine track.
  EXPECT_EQ(events->items.size(), 9u);
  for (const JsonValue& e : events->items) {
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"ph", "pid", "tid", "name"})
      EXPECT_NE(e.find(key), nullptr) << "missing " << key;
    const std::string& ph = e.find("ph")->text;
    if (ph == "M") continue;  // metadata rows carry no timestamp
    EXPECT_NE(e.find("ts"), nullptr);
    if (ph == "X") {
      EXPECT_NE(e.find("dur"), nullptr);
    } else {
      ASSERT_EQ(ph, "i");
      ASSERT_NE(e.find("s"), nullptr);
      EXPECT_EQ(e.find("s")->text, "t");  // thread-scoped instant
    }
    EXPECT_NE(e.find("args"), nullptr);
  }
  EXPECT_EQ(root.find("displayTimeUnit")->text, "ns");
}

TEST(PerfettoWriter, GoldenSpanLine) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  // A span [1000 ns, 2500 ns) is written as microseconds with the
  // nanosecond remainder in the fraction — the format Perfetto renders at
  // full precision.
  const TraceSession s = make_session();
  const std::string json = perfetto_json(s);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":1.000,\"pid\":1,\"tid\":0,"
                      "\"name\":\"compute\",\"dur\":1.500,"
                      "\"args\":{\"node\":42,\"arg\":0}"),
            std::string::npos)
      << json;
  // Instants keep the node/arg payload and the thread scope.
  EXPECT_NE(json.find("\"name\":\"tt_probe\",\"s\":\"t\","
                      "\"args\":{\"node\":42,\"arg\":3}"),
            std::string::npos)
      << json;
  // The engine track is named.
  EXPECT_NE(json.find("\"name\":\"engine (serialized)\""), std::string::npos);
}

TEST(PerfettoWriter, ParseRoundTripsToTheMergedStream) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const TraceSession s = make_session();
  std::vector<TraceEvent> back;
  ASSERT_TRUE(parse_perfetto(perfetto_json(s), back));
  const std::vector<TraceEvent> expect = s.merged();
  ASSERT_EQ(back.size(), expect.size());
  for (std::size_t k = 0; k < back.size(); ++k)
    EXPECT_EQ(back[k], expect[k]) << "event " << k;
}

TEST(PerfettoWriter, MultiSessionSelectsByPid) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const TraceSession a = make_session();
  TraceSession b(1, 16);
  b.worker(0).span(EventKind::kComputeSpan, 10, 20, 5);
  const std::string json =
      perfetto_json_multi({{&a, "threads"}, {&b, "simulated"}});
  std::vector<TraceEvent> first, second, def;
  ASSERT_TRUE(parse_perfetto(json, first, 1));
  ASSERT_TRUE(parse_perfetto(json, second, 2));
  ASSERT_TRUE(parse_perfetto(json, def));  // -1 = first session seen
  EXPECT_EQ(first, a.merged());
  EXPECT_EQ(second, b.merged());
  EXPECT_EQ(def, first);
}

TEST(PerfettoWriter, WriteAndLoadFileRoundTrip) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const TraceSession s = make_session();
  const std::string path = "perfetto_test_trace.json";
  ASSERT_TRUE(write_perfetto(path, s, "unit-test"));
  std::vector<TraceEvent> back;
  ASSERT_TRUE(load_trace_file(path, back));
  std::remove(path.c_str());
  EXPECT_EQ(back, s.merged());
}

}  // namespace
}  // namespace ers::obs
