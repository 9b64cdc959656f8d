// The acceptance check of DESIGN.md §11: a traced thread-runtime run's
// per-worker span totals must agree with the executor's own ThreadRunReport
// — exactly when nothing was dropped, since spans and stats are computed
// from the same clock readings.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/parallel_er.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "randomtree/random_tree.hpp"
#include "search/negmax.hpp"

namespace ers {
namespace {

core::EngineConfig cfg(int depth, int serial) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  return c;
}

TEST(ThreadTrace, SpanTotalsAgreeWithRunReport) {
  if (!obs::kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const UniformRandomTree g(4, 6, 11, -100, 100);
  const Value oracle = negmax_search(g, 6).value;
  // 4 threads.  A generous ring keeps the comparison exact (no drops).
  obs::TraceSession session(0, std::size_t{1} << 20);
  const auto r =
      parallel_er_threads(g, cfg(6, 3), /*threads=*/4, /*batch=*/1,
                          /*shards=*/1, &session);
  EXPECT_EQ(r.value, oracle);
  EXPECT_EQ(r.report.threads, 4);
  ASSERT_EQ(session.total_dropped(), 0u)
      << "raise the ring capacity: the exact comparison needs a full record";

  std::uint64_t compute = 0, lock_wait = 0, lock_hold = 0, spans = 0;
  for (int w = 0; w < session.worker_count(); ++w) {
    for (const obs::TraceEvent& e : session.worker(w).events()) {
      switch (e.kind) {
        case obs::EventKind::kComputeSpan:
          compute += e.dur;
          ++spans;
          break;
        case obs::EventKind::kLockWaitSpan: lock_wait += e.dur; break;
        case obs::EventKind::kLockHoldSpan: lock_hold += e.dur; break;
        default: break;
      }
    }
  }
  // The engine records one kUnitCommit per commit, on its own track.
  std::uint64_t committed = 0;
  for (const obs::TraceEvent& e : session.engine_tracer().events())
    if (e.kind == obs::EventKind::kUnitCommit) ++committed;
  // Spans and SchedulerStats use the same Clock::now() readings, so the
  // totals are identical, not merely close.
  EXPECT_EQ(compute, r.report.sched.compute_ns);
  EXPECT_EQ(lock_wait, r.report.sched.lock_wait_ns);
  EXPECT_EQ(lock_hold, r.report.sched.lock_hold_ns);
  // Every computed unit is committed before its worker exits.
  EXPECT_EQ(spans, r.report.sched.units);
  EXPECT_EQ(spans, r.report.units);
  EXPECT_EQ(committed, r.report.units);
}

TEST(ThreadTrace, AnalyzerSeesTheWholeRun) {
  if (!obs::kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const UniformRandomTree g(4, 5, 23, -100, 100);
  obs::TraceSession session(0, std::size_t{1} << 20);
  const auto r = parallel_er_threads(g, cfg(5, 2), 4, 1, 1, &session);
  ASSERT_EQ(session.total_dropped(), 0u);
  const obs::TraceReport rep = obs::analyze_trace(session.merged());
  // One row per worker up to the highest one that recorded an event: a
  // worker that found no work before the search ended records none.
  std::size_t traced = 0;
  for (int w = 0; w < session.worker_count(); ++w)
    if (session.worker(w).size() > 0) traced = static_cast<std::size_t>(w) + 1;
  ASSERT_GE(traced, 1u);
  ASSERT_EQ(rep.workers.size(), traced);
  std::uint64_t units = 0;
  for (const obs::WorkerTimeline& w : rep.workers) units += w.units;
  EXPECT_EQ(units, r.report.units);
  // Each parallel unit commits under the engine lock with its parent edge,
  // so the analyzer can always recover the dependency graph and a non-empty
  // critical path.
  EXPECT_EQ(rep.units, r.report.units);
  EXPECT_GT(rep.critical_path_ns, 0u);
  EXPECT_GE(rep.span_end, rep.critical_path_ns);
}

TEST(ThreadTrace, UntracedRunReportsNoComputeTimeline) {
  // compute_ns is measured only under a trace session — the untraced hot
  // path takes no per-unit clock readings.
  const UniformRandomTree g(4, 5, 11, -100, 100);
  const auto r = parallel_er_threads(g, cfg(5, 3), 2);
  EXPECT_EQ(r.report.sched.compute_ns, 0u);
  EXPECT_GT(r.report.units, 0u);
}

TEST(ThreadTrace, SessionReusableAcrossRuns) {
  if (!obs::kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  // bench sweeps clear() the session between points; a cleared session must
  // record the next run from scratch.
  const UniformRandomTree g(3, 4, 2, -50, 50);
  obs::TraceSession session(0, std::size_t{1} << 18);
  (void)parallel_er_threads(g, cfg(4, 2), 2, 1, 1, &session);
  const auto first = session.merged().size();
  ASSERT_GT(first, 0u);
  session.clear();
  EXPECT_EQ(session.merged().size(), 0u);
  (void)parallel_er_threads(g, cfg(4, 2), 2, 1, 1, &session);
  EXPECT_GT(session.merged().size(), 0u);
}

}  // namespace
}  // namespace ers
