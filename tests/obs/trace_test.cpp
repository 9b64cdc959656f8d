// Ring-buffer accounting, session merging, and the simulator's trace
// determinism guarantee (same engine + config => identical event stream).

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "core/parallel_er.hpp"
#include "randomtree/random_tree.hpp"

namespace ers::obs {
namespace {

TEST(Tracer, RecordsEventsWithWorkerStamp) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  Tracer t(3, 8);
  t.span(EventKind::kComputeSpan, 100, 250, /*node=*/7);
  t.instant(EventKind::kWakeup, 250, kNoTraceNode, /*arg=*/4);
  ASSERT_EQ(t.size(), 2u);
  const TraceEvent& s = t.events()[0];
  EXPECT_EQ(s.kind, EventKind::kComputeSpan);
  EXPECT_EQ(s.ts, 100u);
  EXPECT_EQ(s.dur, 150u);
  EXPECT_EQ(s.node, 7u);
  EXPECT_EQ(s.worker, 3u);
  const TraceEvent& i = t.events()[1];
  EXPECT_EQ(i.dur, 0u);
  EXPECT_EQ(i.arg, 4u);
}

TEST(Tracer, FullRingDropsAndCounts) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  Tracer t(0, 4);
  for (std::uint64_t k = 0; k < 10; ++k)
    t.instant(EventKind::kWakeup, k * 10);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // The record stays a prefix of the truth: the first 4 events, in order.
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(t.events()[k].ts, k * 10);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  t.instant(EventKind::kWakeup, 1);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Tracer, SpanClampsReversedInterval) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  Tracer t(0, 4);
  t.span(EventKind::kLockWaitSpan, 500, 400);  // to < from
  EXPECT_EQ(t.events()[0].dur, 0u);
}

TEST(TraceSession, MergesSortedByTimeThenWorker) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  TraceSession s(2, 16);
  s.worker(1).instant(EventKind::kWakeup, 50);
  s.worker(0).instant(EventKind::kWakeup, 50);
  s.worker(0).span(EventKind::kComputeSpan, 10, 20);
  s.engine_tracer().instant(EventKind::kUnitCommit, 30, 1, 2);
  const auto merged = s.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].ts, 10u);
  EXPECT_EQ(merged[1].ts, 30u);
  EXPECT_EQ(merged[2].ts, 50u);
  EXPECT_EQ(merged[2].worker, 0u);  // ties break by worker id
  EXPECT_EQ(merged[3].worker, 1u);
}

TEST(TraceSession, TotalDroppedSumsAllRings) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  TraceSession s(2, 2);
  for (int k = 0; k < 5; ++k) {
    s.worker(0).instant(EventKind::kWakeup, 1);
    s.engine_tracer().instant(EventKind::kUnitCommit, 1);
  }
  EXPECT_EQ(s.total_dropped(), 6u);  // 3 dropped in each full ring
}

TEST(TraceSession, VirtualClockOverridesSteady) {
  TraceSession s;
  s.use_virtual_clock();
  s.set_virtual_now(12345);
  EXPECT_EQ(s.now_ns(), 12345u);
  s.set_virtual_now(777);
  EXPECT_EQ(s.now_ns(), 777u);
}

TEST(TraceSession, EnsureWorkersGrowsButNeverShrinks) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  TraceSession s(2, 16);
  s.ensure_workers(4);
  EXPECT_EQ(s.worker_count(), 4);
  s.worker(3).instant(EventKind::kWakeup, 1);
  s.ensure_workers(1);
  EXPECT_EQ(s.worker_count(), 4);
  EXPECT_EQ(s.worker(3).size(), 1u);
}

// --- simulator determinism ------------------------------------------------

core::EngineConfig cfg(int depth, int serial) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  return c;
}

TEST(SimTraceDeterminism, SameSeedAndConfigSameEventStream) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const UniformRandomTree g(4, 5, 99, -100, 100);
  TraceSession a, b;
  const auto ra = parallel_er_sim(g, cfg(5, 3), 4, {}, &a);
  const auto rb = parallel_er_sim(g, cfg(5, 3), 4, {}, &b);
  EXPECT_EQ(ra.value, rb.value);
  const auto ea = a.merged();
  const auto eb = b.merged();
  ASSERT_GT(ea.size(), 0u);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t k = 0; k < ea.size(); ++k)
    ASSERT_EQ(ea[k], eb[k]) << "first divergence at event " << k;
  EXPECT_EQ(a.total_dropped(), b.total_dropped());
}

TEST(SimTraceDeterminism, DifferentProcessorCountDifferentSchedule) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const UniformRandomTree g(4, 5, 99, -100, 100);
  TraceSession a, b;
  (void)parallel_er_sim(g, cfg(5, 3), 2, {}, &a);
  (void)parallel_er_sim(g, cfg(5, 3), 8, {}, &b);
  EXPECT_NE(a.merged(), b.merged());
}

TEST(SimTrace, SpanTotalsMatchSimMetrics) {
  if (!kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  // The simulator's trace is exact (one span per charged interval), so the
  // per-kind totals must reproduce SimMetrics' aggregate counters whenever
  // nothing was dropped.
  const UniformRandomTree g(4, 5, 5, -100, 100);
  TraceSession s(0, std::size_t{1} << 20);
  const auto r = parallel_er_sim(g, cfg(5, 3), 4, {}, &s);
  ASSERT_EQ(s.total_dropped(), 0u);
  std::uint64_t lock_wait = 0, idle = 0, holds = 0;
  for (const TraceEvent& e : s.merged()) {
    if (e.kind == EventKind::kLockWaitSpan) lock_wait += e.dur;
    if (e.kind == EventKind::kSleepSpan) idle += e.dur;
    if (e.kind == EventKind::kLockHoldSpan) ++holds;
  }
  EXPECT_EQ(lock_wait, r.metrics.lock_wait_time);
  EXPECT_EQ(idle, r.metrics.idle_time);
  // One lock-hold span per acquire and per commit = serialized heap
  // accesses.
  EXPECT_EQ(holds, r.metrics.heap_accesses);
}

}  // namespace
}  // namespace ers::obs
