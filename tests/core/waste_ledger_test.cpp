// The wasted-work attribution ledger (DESIGN.md §16): Engine counters that
// charge each cancelled subtree's already-committed compute, reconciled
// here against an independent replay of the trace stream.  The ledger
// charges at kill time from per-node subtree tallies; the replay
// attributes each traced kUnitCommit to its nearest cancelled ancestor.
// The two must agree exactly — same cancels, same unit counts, same
// nanoseconds — on any schedule, which is the strongest correctness
// statement available for attribution code (a double count or a missed
// charge breaks the equality on some run).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel_er.hpp"
#include "core/types.hpp"
#include "harness/tree_registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "randomtree/random_tree.hpp"

namespace ers {
namespace {

void expect_reconciles(const core::EngineWasteStats& w,
                       const obs::TraceReport& rep) {
  // The replay's cancels are both kill causes plus the dead queue-entry
  // drops, which the ledger counts as cancels with no units or ns.
  EXPECT_EQ(rep.waste.total_cancels(), w.total_cancels());
  EXPECT_EQ(rep.waste.total_units(), w.total_units());
  EXPECT_EQ(rep.waste.total_ns(), w.total_ns());
}

TEST(WasteLedger, ReconcilesWithTraceOnO2SpeculationWorkload) {
  // O2 (Table 3), scaled down for test time, simulated at 8 processors with
  // every speculation mechanism on: bound-change and sibling-resolution
  // kills both occur, and the simulator stamps exact per-unit durations, so
  // the ns totals must match to the nanosecond.
  const auto tree = harness::tree_by_name("O2", /*scale_depth=*/3);
  obs::TraceSession session;
  std::visit(
      [&](const auto& game) {
        const auto r = parallel_er_sim(game, tree.engine, /*processors=*/8,
                                       /*cost=*/{}, &session);
        ASSERT_EQ(session.total_dropped(), 0u)
            << "ring overflow would make the replay a strict subset";
        const obs::TraceReport rep = obs::analyze_trace(session.merged());
        EXPECT_EQ(rep.units, r.engine.units_processed);
        EXPECT_GT(r.waste.total_cancels(), 0u)
            << "workload produced no speculation waste; the reconciliation "
               "below would be vacuous";
        expect_reconciles(r.waste, rep);
      },
      tree.game);
}

TEST(WasteLedger, ReconcilesAcrossProcessorCounts) {
  const UniformRandomTree g(4, 5, 123, -100, 100);
  core::EngineConfig cfg;
  cfg.search_depth = 5;
  cfg.serial_depth = 3;
  for (const int p : {2, 8}) {
    obs::TraceSession session;
    const auto r = parallel_er_sim(g, cfg, p, {}, &session);
    ASSERT_EQ(session.total_dropped(), 0u);
    const obs::TraceReport rep = obs::analyze_trace(session.merged());
    expect_reconciles(r.waste, rep);
  }
}

TEST(WasteLedger, ThreadRuntimeReconcilesUnitCountsAndTracedNs) {
  // Real threads, nondeterministic schedule: the equality must hold on
  // every run.  The traced thread executor stamps each result with the
  // same measured duration it mirrors onto the kUnitCommit event, so even
  // the ns totals reconcile exactly here.
  const UniformRandomTree g(4, 5, 29, -100, 100);
  core::EngineConfig cfg;
  cfg.search_depth = 5;
  cfg.serial_depth = 3;
  for (int run = 0; run < 3; ++run) {
    obs::TraceSession session;
    const auto r = parallel_er_threads(g, cfg, /*threads=*/4, /*batch=*/1,
                                       /*shards=*/1, &session);
    if (session.total_dropped() != 0) continue;  // replay would be partial
    const obs::TraceReport rep = obs::analyze_trace(session.merged());
    expect_reconciles(r.waste, rep);
  }
}

TEST(WasteLedger, CallWasteSumsEveryAspiratedRun) {
  // A sorted search runs the engine twice here: static values on a random
  // tree predict nothing, so the aspiration guess fails and one re-search
  // follows.  The call's ledger must cover both runs.  One thread keeps
  // the schedule fixed.  Node ids restart per run, so the merged trace is
  // split at each run's root expansion (the kUnitCommit of node 0) and
  // each part is replayed on its own.
  const UniformRandomTree g(4, 6, 17, -10'000, 10'000);
  core::EngineConfig cfg;
  cfg.search_depth = 6;
  cfg.serial_depth = 5;
  cfg.ordering.sort_by_static_value = true;
  obs::TraceSession session;
  const auto r = parallel_er_threads(g, cfg, /*threads=*/1, /*batch=*/1,
                                     /*shards=*/1, &session);
  ASSERT_EQ(session.total_dropped(), 0u);
  EXPECT_EQ(r.researches, 1);
  const std::vector<obs::TraceEvent> events = session.merged();
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k < events.size(); ++k)
    if (events[k].kind == obs::EventKind::kUnitCommit && events[k].node == 0)
      starts.push_back(k);
  ASSERT_EQ(starts.size(), 2u) << "one root expansion per engine run";
  starts.front() = 0;
  starts.push_back(events.size());
  core::EngineWasteStats runs;
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const obs::TraceReport rep = obs::analyze_trace(std::vector<obs::TraceEvent>(
        events.begin() + static_cast<std::ptrdiff_t>(starts[k]),
        events.begin() + static_cast<std::ptrdiff_t>(starts[k + 1])));
    // Both runs waste work, so a ledger that kept one run's share fails.
    EXPECT_GT(rep.waste.total_units(), 0u) << "run " << k;
    runs += core::EngineWasteStats{rep.waste.total_cancels(),
                                   rep.waste.total_units(),
                                   rep.waste.total_ns()};
  }
  EXPECT_EQ(r.waste.total_cancels(), runs.total_cancels());
  EXPECT_EQ(r.waste.total_units(), runs.total_units());
  EXPECT_EQ(r.waste.total_ns(), runs.total_ns());
}

TEST(WasteLedger, UntracedRunsCountUnitsButNoThreadNs) {
  // Untraced thread workers never read the clock: unit counts stay exact,
  // ns stays zero (types.hpp documents this contract on EngineWasteStats).
  const UniformRandomTree g(4, 5, 29, -100, 100);
  core::EngineConfig cfg;
  cfg.search_depth = 5;
  cfg.serial_depth = 3;
  const auto r = parallel_er_threads(g, cfg, /*threads=*/4);
  EXPECT_EQ(r.waste.total_ns(), 0u);
  // The sim path on the same tree charges real (virtual) nanoseconds.
  const auto s = parallel_er_sim(g, cfg, 8);
  if (s.waste.total_units() > 0) {
    EXPECT_GT(s.waste.total_ns(), 0u);
  }
}

}  // namespace
}  // namespace ers
