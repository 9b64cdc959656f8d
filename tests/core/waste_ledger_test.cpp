// The wasted-work attribution ledger (DESIGN.md §16): Engine counters that
// charge each cancelled subtree's already-committed compute to a (cause,
// ply-band) cell, reconciled here against an independent replay of the
// trace stream.  The ledger charges at kill time from per-node subtree
// tallies; the replay attributes each traced kUnitCommit to its nearest
// cancelled ancestor.  The two must agree exactly — same cancels, same
// unit counts, same nanoseconds — on any schedule, which is the strongest
// correctness statement available for attribution code (a double count or
// a missed charge breaks the equality on some run).

#include <gtest/gtest.h>

#include <cstdint>
#include <variant>

#include "core/engine.hpp"
#include "core/parallel_er.hpp"
#include "core/types.hpp"
#include "harness/tree_registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "randomtree/random_tree.hpp"

namespace ers {
namespace {

using core::WasteCause;

void expect_reconciles(const core::EngineWasteStats& w,
                       const obs::TraceReport& rep, bool check_ns) {
  EXPECT_EQ(rep.waste.bound_change.cancels,
            w.cause_cancels(WasteCause::kBoundChange));
  EXPECT_EQ(rep.waste.bound_change.units,
            w.cause_units(WasteCause::kBoundChange));
  EXPECT_EQ(rep.waste.sibling_resolution.cancels,
            w.cause_cancels(WasteCause::kSiblingResolution));
  EXPECT_EQ(rep.waste.sibling_resolution.units,
            w.cause_units(WasteCause::kSiblingResolution));
  EXPECT_EQ(rep.waste.dead_drops, w.cause_cancels(WasteCause::kDeadDrop));
  // Dead queue-entry drops never ran, so the ledger holds no units or ns
  // for them by construction.
  EXPECT_EQ(w.cause_units(WasteCause::kDeadDrop), 0u);
  EXPECT_EQ(w.cause_ns(WasteCause::kDeadDrop), 0u);
  if (check_ns) {
    EXPECT_EQ(rep.waste.bound_change.compute_ns,
              w.cause_ns(WasteCause::kBoundChange));
    EXPECT_EQ(rep.waste.sibling_resolution.compute_ns,
              w.cause_ns(WasteCause::kSiblingResolution));
    EXPECT_EQ(rep.waste.total_ns(), w.total_ns());
  }
}

TEST(WasteLedger, ReconcilesWithTraceOnO2SpeculationWorkload) {
  if (!obs::kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
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
        expect_reconciles(r.waste, rep, /*check_ns=*/true);
      },
      tree.game);
}

TEST(WasteLedger, ReconcilesAcrossProcessorCounts) {
  if (!obs::kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const UniformRandomTree g(4, 5, 123, -100, 100);
  core::EngineConfig cfg;
  cfg.search_depth = 5;
  cfg.serial_depth = 3;
  for (const int p : {2, 8}) {
    obs::TraceSession session;
    const auto r = parallel_er_sim(g, cfg, p, {}, &session);
    ASSERT_EQ(session.total_dropped(), 0u);
    const obs::TraceReport rep = obs::analyze_trace(session.merged());
    expect_reconciles(r.waste, rep, /*check_ns=*/true);
  }
}

TEST(WasteLedger, ThreadRuntimeReconcilesUnitCountsAndTracedNs) {
  if (!obs::kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
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
    expect_reconciles(r.waste, rep, /*check_ns=*/true);
    EXPECT_EQ(r.waste.total_units(), r.report.waste.total_units());
  }
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

TEST(WasteLedger, BandsAndCausesFoldIntoTotals) {
  core::EngineWasteStats w;
  w.cancels[0][0] = 1;
  w.cancels[1][3] = 2;
  w.cancels[2][1] = 4;
  w.units[0][0] = 10;
  w.units[1][3] = 20;
  w.compute_ns[0][0] = 100;
  w.compute_ns[1][3] = 200;
  EXPECT_EQ(w.cause_cancels(WasteCause::kBoundChange), 1u);
  EXPECT_EQ(w.cause_cancels(WasteCause::kSiblingResolution), 2u);
  EXPECT_EQ(w.cause_cancels(WasteCause::kDeadDrop), 4u);
  EXPECT_EQ(w.total_cancels(), 7u);
  EXPECT_EQ(w.total_units(), 30u);
  EXPECT_EQ(w.total_ns(), 300u);
  EXPECT_STREQ(core::waste_cause_name(WasteCause::kBoundChange),
               "bound_change");
  EXPECT_STREQ(core::waste_cause_name(WasteCause::kSiblingResolution),
               "sibling_resolution");
  EXPECT_STREQ(core::waste_cause_name(WasteCause::kDeadDrop), "dead_drop");
  EXPECT_EQ(core::waste_band_of(0), 0u);
  EXPECT_EQ(core::waste_band_of(2), 2u);
  EXPECT_EQ(core::waste_band_of(9), core::kWastePlyBands - 1);
}

}  // namespace
}  // namespace ers
