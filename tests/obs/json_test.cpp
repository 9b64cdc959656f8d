// The consolidated JSON emitter (obs/json.hpp), the metrics registry, and
// the adapters that flatten the runtime/sim/engine stats structs.  The
// emitter tests pin the exact bytes the benches used to produce from their
// hand-rolled copies in bench/common.hpp, so the dedupe is provably
// byte-compatible.

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/json_read.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_adapters.hpp"

namespace ers::obs {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("R1 othello"), "R1 othello");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
}

TEST(JsonObject, EmitsInsertionOrderedFlatObject) {
  // The exact format the bench summaries have always used: %.6g doubles,
  // unquoted integers, quoted escaped strings.
  const std::string s = JsonObject()
                            .field("tree", "R1")
                            .field("procs", 16)
                            .field("speedup", 3.25)
                            .field("units", std::uint64_t{123456789012})
                            .str();
  EXPECT_EQ(s,
            "{\"tree\":\"R1\",\"procs\":16,\"speedup\":3.25,"
            "\"units\":123456789012}");
  EXPECT_EQ(JsonObject().str(), "{}");
  EXPECT_EQ(JsonObject().raw("args", "{\"node\":7}").str(),
            "{\"args\":{\"node\":7}}");
}

TEST(WriteBenchJson, StampsEveryLineAndSplicesAfterBrace) {
  const std::string path = "BENCH_json_test.json";
  write_bench_json("json_test", 2,
                   {JsonObject().field("tree", "R1").field("speedup", 3.25).str(),
                    "{}"});
  std::string text;
  ASSERT_TRUE(read_file(path, text));
  std::remove(path.c_str());
  EXPECT_EQ(text,
            "{\"bench\":\"json_test\",\"reps\":2,\"tree\":\"R1\","
            "\"speedup\":3.25}\n"
            "{\"bench\":\"json_test\",\"reps\":2}\n");
}

TEST(MetricsRegistry, SetOverwritesInPlaceKeepingOrder) {
  MetricsRegistry reg;
  reg.set("bench", "spec_policy");
  reg.set("units", std::uint64_t{10});
  reg.set("speedup", 2.5);
  reg.set("units", std::uint64_t{20});  // overwrite, not append
  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("units"), 20u);
  EXPECT_EQ(reg.gauge("speedup"), 2.5);
  EXPECT_TRUE(reg.has("bench"));
  EXPECT_FALSE(reg.has("missing"));
  EXPECT_EQ(reg.to_json(),
            "{\"bench\":\"spec_policy\",\"units\":20,\"speedup\":2.5}");
}

TEST(MetricsRegistry, AddAccumulatesFromZero) {
  MetricsRegistry reg;
  reg.add("tt.probes", 5);
  reg.add("tt.probes", 7);
  EXPECT_EQ(reg.counter("tt.probes"), 12u);
}

TEST(MetricsRegistry, NegativeIntRoundTripsSigned) {
  // Regression: set(int) used to cast straight to uint64, so -3 serialized
  // as 18446744073709551613.  Negative ints now store as a signed entry and
  // survive the JSON round trip.
  MetricsRegistry reg;
  reg.set("frontier", -3);
  reg.set("shards", 4);
  EXPECT_EQ(reg.to_json(), "{\"frontier\":-3,\"shards\":4}");
  JsonValue v;
  ASSERT_TRUE(parse_json(reg.to_json(), v));
  EXPECT_EQ(static_cast<std::int64_t>(v.find("frontier")->as_double()), -3);
  EXPECT_EQ(v.find("shards")->as_uint64(), 4u);
}

TEST(MetricsRegistry, SnapshotRoundTripsThroughTheReader) {
  MetricsRegistry reg;
  reg.set("tree", "O1 \"deep\"");
  reg.set("units", std::uint64_t{42});
  reg.set("efficiency", 0.875);
  JsonValue v;
  ASSERT_TRUE(parse_json(reg.to_json(), v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("tree")->text, "O1 \"deep\"");
  EXPECT_EQ(v.find("units")->as_uint64(), 42u);
  EXPECT_DOUBLE_EQ(v.find("efficiency")->as_double(), 0.875);
}

// --- adapters --------------------------------------------------------------

TEST(MetricsAdapters, SchedulerStatsFlattensUnderPrefix) {
  runtime::SchedulerStats s;
  s.lock_acquisitions = 9;
  s.lock_wait_ns = 100;
  s.units = 12;
  s.wakeups_issued = 2;
  s.sleeps = 3;
  MetricsRegistry reg;
  register_scheduler_stats(reg, s);
  EXPECT_EQ(reg.counter("sched.lock_acquisitions"), 9u);
  EXPECT_EQ(reg.counter("sched.units"), 12u);
  EXPECT_EQ(reg.counter("sched.wakeups_issued"), 2u);
  EXPECT_EQ(reg.counter("sched.sleeps"), 3u);
}

TEST(SchedulerStats, MergeFoldsEveryField) {
  runtime::SchedulerStats a, b;
  a.lock_wait_ns = 5;
  a.compute_ns = 100;
  a.units = 1;
  a.compute_hist.record(100);
  b.lock_wait_ns = 7;
  b.compute_ns = 200;
  b.units = 2;
  b.compute_hist.record(100);
  b.commit_hist.record(9);
  b.sleeps = 3;
  b.wakeups_issued = 1;
  a.merge(b);
  EXPECT_EQ(a.lock_wait_ns, 12u);
  EXPECT_EQ(a.compute_ns, 300u);
  EXPECT_EQ(a.units, 3u);
  EXPECT_EQ(a.compute_hist.count(), 2u);
  EXPECT_EQ(a.compute_hist.bucket(obs::Histogram::bucket_of(100)), 2u);
  EXPECT_EQ(a.commit_hist.count(), 1u);
  EXPECT_EQ(a.sleeps, 3u);
  EXPECT_EQ(a.wakeups_issued, 1u);
}

TEST(MetricsAdapters, ThreadReportIncludesTtAndNestedScheduler) {
  runtime::ThreadRunReport r;
  r.threads = 4;
  r.units = 99;
  r.elapsed_ns = 1000;
  r.tt_probes = 10;
  r.tt_hits = 4;
  r.sched.lock_wait_ns = 400;
  MetricsRegistry reg;
  register_thread_report(reg, r);
  EXPECT_EQ(reg.counter("run.threads"), 4u);
  EXPECT_EQ(reg.counter("run.units"), 99u);
  EXPECT_DOUBLE_EQ(reg.gauge("tt.hit_rate"), 0.4);
  // lock_wait_share = 400 / (1000 * 4)
  EXPECT_DOUBLE_EQ(reg.gauge("run.lock_wait_share"), 0.1);
  EXPECT_EQ(reg.counter("sched.lock_wait_ns"), 400u);
}

TEST(MetricsAdapters, SimMetricsFlattensUnderPrefix) {
  sim::SimMetrics m;
  m.processors = 8;
  m.makespan = 100;
  m.busy_time = 400;
  m.heap_accesses = 42;
  MetricsRegistry reg;
  register_sim_metrics(reg, m);
  EXPECT_EQ(reg.counter("sim.processors"), 8u);
  EXPECT_EQ(reg.counter("sim.heap_accesses"), 42u);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.utilization"), 0.5);
}

// --- the reader itself -----------------------------------------------------

TEST(JsonReader, ParsesNestedStructures) {
  JsonValue v;
  ASSERT_TRUE(parse_json(
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}, "e": -3})", v));
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].as_uint64(), 1u);
  EXPECT_DOUBLE_EQ(a->items[1].as_double(), 2.5);
  EXPECT_EQ(a->items[2].text, "x");
  const JsonValue* c = v.find("b")->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->boolean);
  EXPECT_DOUBLE_EQ(v.find("e")->as_double(), -3.0);
}

TEST(JsonReader, DecodesEscapesIncludingUnicode) {
  JsonValue v;
  ASSERT_TRUE(parse_json(R"({"s": "a\"b\\c\nA"})", v));
  EXPECT_EQ(v.find("s")->text, "a\"b\\c\nA");
}

TEST(JsonReader, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(parse_json("{", v));
  EXPECT_FALSE(parse_json("{\"a\":}", v));
  EXPECT_FALSE(parse_json("[1, 2] trailing", v));
  EXPECT_FALSE(parse_json("", v));
}

TEST(JsonReader, MicrosecondTokenToNsIsExact) {
  EXPECT_EQ(us_token_to_ns("12.345"), 12345u);
  EXPECT_EQ(us_token_to_ns("7"), 7000u);
  EXPECT_EQ(us_token_to_ns("0.001"), 1u);
  EXPECT_EQ(us_token_to_ns("3.5"), 3500u);
  EXPECT_EQ(us_token_to_ns("0.000"), 0u);
  // A large timestamp that would lose precision through a double.
  EXPECT_EQ(us_token_to_ns("9007199254740.993"), 9007199254740993u);
}

}  // namespace
}  // namespace ers::obs
