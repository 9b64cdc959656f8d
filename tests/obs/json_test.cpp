// The consolidated JSON emitter (obs/json.hpp), its reader
// (obs/json_read.hpp), and the runtime report folds the benches print.  The
// emitter tests pin the exact bytes the benches used to produce from their
// hand-rolled copies in bench/common.hpp, so the dedupe is provably
// byte-compatible.

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/json_read.hpp"
#include "runtime/thread_executor.hpp"

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

TEST(JsonObject, NegativeIntRoundTripsSigned) {
  // Root values are signed: field(int) must emit -3, not the uint64 wrap
  // 18446744073709551613, and the reader must get -3 back.
  const std::string s = JsonObject().field("value", -3).field("procs", 4).str();
  EXPECT_EQ(s, "{\"value\":-3,\"procs\":4}");
  JsonValue v;
  ASSERT_TRUE(parse_json(s, v));
  EXPECT_EQ(static_cast<std::int64_t>(v.find("value")->as_double()), -3);
  EXPECT_EQ(v.find("procs")->as_uint64(), 4u);
}

TEST(JsonObject, RoundTripsThroughTheReader) {
  const std::string s = JsonObject()
                            .field("tree", "O1 \"deep\"")
                            .field("units", std::uint64_t{42})
                            .field("efficiency", 0.875)
                            .str();
  JsonValue v;
  ASSERT_TRUE(parse_json(s, v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("tree")->text, "O1 \"deep\"");
  EXPECT_EQ(v.find("units")->as_uint64(), 42u);
  EXPECT_DOUBLE_EQ(v.find("efficiency")->as_double(), 0.875);
}

// --- runtime report folds --------------------------------------------------

TEST(SchedulerStats, MergeFoldsEveryField) {
  runtime::SchedulerStats a, b;
  a.lock_acquisitions = 2;
  a.lock_wait_ns = 5;
  a.lock_hold_ns = 11;
  a.compute_ns = 100;
  a.units = 1;
  b.lock_acquisitions = 4;
  b.lock_wait_ns = 7;
  b.lock_hold_ns = 13;
  b.compute_ns = 200;
  b.units = 2;
  b.sleeps = 3;
  b.wakeups_issued = 1;
  a.merge(b);
  EXPECT_EQ(a.lock_acquisitions, 6u);
  EXPECT_EQ(a.lock_wait_ns, 12u);
  EXPECT_EQ(a.lock_hold_ns, 24u);
  EXPECT_EQ(a.compute_ns, 300u);
  EXPECT_EQ(a.units, 3u);
  EXPECT_EQ(a.sleeps, 3u);
  EXPECT_EQ(a.wakeups_issued, 1u);
}

TEST(ThreadRunReport, LockWaitShareIsOverWorkerTime) {
  runtime::ThreadRunReport r;
  r.threads = 4;
  r.elapsed_ns = 1000;
  r.sched.lock_wait_ns = 400;
  // 400 ns blocked over 4 workers x 1000 ns.
  EXPECT_DOUBLE_EQ(r.lock_wait_share(), 0.1);
  EXPECT_DOUBLE_EQ(runtime::ThreadRunReport{}.lock_wait_share(), 0.0);
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
