// The offline trace analyzer behind tools/trace_report: per-worker
// timelines and the critical path through the unit dependency graph — all
// on synthetic event streams with known answers.

#include "obs/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ers::obs {
namespace {

TraceEvent span(EventKind k, std::uint64_t from, std::uint64_t to,
                std::uint16_t worker, std::uint32_t node = kNoTraceNode) {
  TraceEvent e;
  e.kind = k;
  e.ts = from;
  e.dur = to - from;
  e.worker = worker;
  e.node = node;
  return e;
}

TraceEvent instant(EventKind k, std::uint64_t ts, std::uint16_t worker,
                   std::uint32_t node = kNoTraceNode, std::uint32_t arg = 0) {
  TraceEvent e;
  e.kind = k;
  e.ts = ts;
  e.worker = worker;
  e.node = node;
  e.arg = arg;
  return e;
}

TEST(TraceAnalysis, PerWorkerTimelineTotals) {
  std::vector<TraceEvent> ev;
  ev.push_back(span(EventKind::kComputeSpan, 0, 60, 0, 1));
  ev.push_back(span(EventKind::kComputeSpan, 70, 100, 0, 2));
  ev.push_back(span(EventKind::kLockWaitSpan, 60, 65, 0));
  ev.push_back(span(EventKind::kLockHoldSpan, 65, 70, 0));
  ev.push_back(span(EventKind::kSleepSpan, 0, 40, 1));
  ev.push_back(span(EventKind::kComputeSpan, 40, 90, 1, 3));
  const TraceReport rep = analyze_trace(ev);
  ASSERT_EQ(rep.workers.size(), 2u);
  EXPECT_EQ(rep.workers[0].compute_ns, 90u);
  EXPECT_EQ(rep.workers[0].lock_wait_ns, 5u);
  EXPECT_EQ(rep.workers[0].lock_hold_ns, 5u);
  EXPECT_EQ(rep.workers[0].units, 2u);
  EXPECT_EQ(rep.workers[0].extent(), 100u);
  EXPECT_DOUBLE_EQ(rep.workers[0].utilization(), 0.9);
  EXPECT_EQ(rep.workers[1].sleep_ns, 40u);
  EXPECT_EQ(rep.workers[1].compute_ns, 50u);
  EXPECT_EQ(rep.span_end, 100u);
  EXPECT_EQ(rep.counts[static_cast<std::size_t>(EventKind::kComputeSpan)], 3u);
}

TEST(TraceAnalysis, ExtentIsRelativeToTheFirstEvent) {
  // A thread session's epoch starts at construction, long before the traced
  // run; the report's extent must not include that dead offset.
  std::vector<TraceEvent> ev;
  ev.push_back(span(EventKind::kComputeSpan, 5000, 5600, 0, 1));
  ev.push_back(span(EventKind::kLockHoldSpan, 5600, 5650, 0));
  const TraceReport rep = analyze_trace(ev);
  EXPECT_EQ(rep.span_begin, 5000u);
  EXPECT_EQ(rep.span_end, 5650u);
  EXPECT_EQ(rep.extent(), 650u);
}

TEST(TraceAnalysis, EngineTrackExcludedFromWorkerTable) {
  std::vector<TraceEvent> ev;
  ev.push_back(span(EventKind::kComputeSpan, 0, 10, 0, 1));
  ev.push_back(
      instant(EventKind::kUnitCommit, 12, TraceSession::kEngineWorker, 1, 0));
  const TraceReport rep = analyze_trace(ev);
  EXPECT_EQ(rep.workers.size(), 1u);  // no 65534-row table
  EXPECT_EQ(rep.units, 1u);
}

TEST(TraceAnalysis, CriticalPathThroughCommitGraph) {
  // Dependency graph (kUnitCommit: node, arg = parent):
  //   1 <- 2, 1 <- 3, 2 <- 4; compute durations 10 / 20 / 5 / 7.
  // Longest chain is 1 -> 2 -> 4 with cost 10 + 20 + 7 = 37; total compute
  // is 42, so the dependency graph bounds speedup at 42/37.
  std::vector<TraceEvent> ev;
  ev.push_back(span(EventKind::kComputeSpan, 0, 10, 0, 1));
  ev.push_back(span(EventKind::kComputeSpan, 0, 20, 1, 2));
  ev.push_back(span(EventKind::kComputeSpan, 0, 5, 2, 3));
  ev.push_back(span(EventKind::kComputeSpan, 20, 27, 1, 4));
  const auto eng = TraceSession::kEngineWorker;
  ev.push_back(instant(EventKind::kUnitCommit, 30, eng, 1, kNoTraceNode));
  ev.push_back(instant(EventKind::kUnitCommit, 31, eng, 2, 1));
  ev.push_back(instant(EventKind::kUnitCommit, 32, eng, 3, 1));
  ev.push_back(instant(EventKind::kUnitCommit, 33, eng, 4, 2));
  const TraceReport rep = analyze_trace(ev);
  EXPECT_EQ(rep.units, 4u);
  EXPECT_EQ(rep.critical_path_ns, 37u);
  ASSERT_EQ(rep.critical_path.size(), 3u);
  EXPECT_EQ(rep.critical_path[0].node, 1u);
  EXPECT_EQ(rep.critical_path[1].node, 2u);
  EXPECT_EQ(rep.critical_path[2].node, 4u);
  EXPECT_EQ(rep.critical_path[2].compute_ns, 7u);
  EXPECT_DOUBLE_EQ(rep.parallelism_bound(), 42.0 / 37.0);
}

TEST(TraceAnalysis, SelfAndSentinelCommitEdgesAreIgnored) {
  std::vector<TraceEvent> ev;
  const auto eng = TraceSession::kEngineWorker;
  ev.push_back(span(EventKind::kComputeSpan, 0, 10, 0, 1));
  ev.push_back(instant(EventKind::kUnitCommit, 1, eng, 1, 1));  // self edge
  ev.push_back(
      instant(EventKind::kUnitCommit, 2, eng, kNoTraceNode, 1));  // no node
  const TraceReport rep = analyze_trace(ev);
  EXPECT_EQ(rep.units, 2u);
  EXPECT_EQ(rep.critical_path_ns, 0u);  // no usable edges -> no path
  EXPECT_TRUE(rep.critical_path.empty());
}

TEST(TraceAnalysis, EmptyStreamYieldsEmptyReport) {
  const TraceReport rep = analyze_trace({});
  EXPECT_TRUE(rep.workers.empty());
  EXPECT_EQ(rep.span_end, 0u);
  EXPECT_EQ(rep.critical_path_ns, 0u);
  EXPECT_DOUBLE_EQ(rep.parallelism_bound(), 0.0);
}

TEST(TraceAnalysis, KindFromNameInvertsEventName) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EventKind back{};
    ASSERT_TRUE(kind_from_name(event_name(kind), back));
    EXPECT_EQ(back, kind);
  }
  EventKind ignored{};
  EXPECT_FALSE(kind_from_name("process_name", ignored));
  EXPECT_FALSE(kind_from_name("", ignored));
}

TEST(TraceAnalysis, RenderReportMentionsEverySection) {
  std::vector<TraceEvent> ev;
  ev.push_back(span(EventKind::kComputeSpan, 0, 10, 0, 1));
  ev.push_back(span(EventKind::kComputeSpan, 10, 15, 0, 2));
  ev.push_back(instant(EventKind::kWakeup, 2, 0, kNoTraceNode, 1));
  const auto eng = TraceSession::kEngineWorker;
  ev.push_back(instant(EventKind::kUnitCommit, 16, eng, 2, 1));
  const std::string text = render_report(analyze_trace(ev));
  EXPECT_NE(text.find("per-worker timeline"), std::string::npos);
  EXPECT_NE(text.find("speculation control"), std::string::npos);
  EXPECT_NE(text.find("scheduling events"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("parallelism bound"), std::string::npos);
}

TEST(TraceAnalysis, FormatNsPicksReadableUnits) {
  EXPECT_EQ(format_ns(999), "999 ns");
  EXPECT_EQ(format_ns(1500), "1.500 us");
  EXPECT_EQ(format_ns(2500000), "2.500 ms");
}

}  // namespace
}  // namespace ers::obs
