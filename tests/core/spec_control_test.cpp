// Speculation control (DESIGN.md §17) and the shared ordering tables:
// correctness, determinism, and the concurrency hammers.  Own test
// binary so the thread-runtime hammers ride the tsan lane (ctest -L tsan)
// without dragging the serial engine sweeps along.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel_er.hpp"
#include "randomtree/random_tree.hpp"
#include "search/negmax.hpp"
#include "search/ordering.hpp"

namespace ers {
namespace {

/// Deep parallel region (serial cutover at the horizon): heavy speculative
/// traffic, the regime the §17 controller exists for.
core::EngineConfig deep_cfg(core::SpecRankPolicy policy) {
  core::EngineConfig cfg;
  cfg.search_depth = 6;
  cfg.serial_depth = 3;
  cfg.spec_rank = policy;
  return cfg;
}

// ---------------------------------------------------------------------------
// Exactness and determinism with the controller on (sim).
// ---------------------------------------------------------------------------

std::vector<core::SpecControlConfig> control_points() {
  core::SpecControlConfig demote;
  demote.bound_demote = true;
  core::SpecControlConfig budget = demote;
  budget.budget = true;
  budget.budget_max = 2;  // tight: force deferrals, not just bookkeeping
  return {demote, budget};
}

TEST(SpecControl, ExactOnRandomTreesUnderEveryControl) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const UniformRandomTree g(4, 6, seed, -70, 70);
    const Value oracle = negmax_search(g, 6).value;
    for (const auto& control : control_points()) {
      for (int p : {1, 8, 16}) {
        auto cfg = deep_cfg(core::SpecRankPolicy::kStealAware);
        cfg.spec_control = control;
        const auto r = parallel_er_sim(g, cfg, p);
        EXPECT_EQ(r.value, oracle) << "seed=" << seed << " p=" << p;
      }
    }
  }
}

TEST(SpecControl, ExactWithOrderingTablesAttached) {
  OrderingTables tables;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const UniformRandomTree g(4, 6, seed, -90, 90);
    const Value oracle = negmax_search(g, 6).value;
    auto cfg = deep_cfg(core::SpecRankPolicy::kStealAware);
    cfg.spec_control = control_points().back();
    cfg.ordering.sort_by_static_value = true;
    cfg.order_tables = &tables;
    tables.new_search();
    for (int p : {1, 16}) {
      const auto r = parallel_er_sim(g, cfg, p);
      EXPECT_EQ(r.value, oracle) << "seed=" << seed << " p=" << p;
    }
  }
}

TEST(SpecControl, DeterministicUnderControl) {
  const UniformRandomTree g(5, 5, 19, -100, 100);
  auto cfg = deep_cfg(core::SpecRankPolicy::kStealAware);
  cfg.spec_control = control_points().back();
  const auto a = parallel_er_sim(g, cfg, 16);
  const auto b = parallel_er_sim(g, cfg, 16);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.engine.search.nodes_generated(),
            b.engine.search.nodes_generated());
  EXPECT_EQ(a.engine.spec_demotions, b.engine.spec_demotions);
  EXPECT_EQ(a.engine.spec_rewindows, b.engine.spec_rewindows);
  EXPECT_EQ(a.engine.spec_budget_deferrals, b.engine.spec_budget_deferrals);
}

TEST(SpecControl, ControllerActuallyEngagesSomewhere) {
  // A controller that never demotes, re-windows, or defers on any of 20
  // speculative-heavy trees is not wired in.
  std::uint64_t demoted = 0, deferred = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const UniformRandomTree g(5, 7, seed, -1000, 1000);
    auto cfg = deep_cfg(core::SpecRankPolicy::kStealAware);
    cfg.search_depth = 7;
    cfg.serial_depth = 5;
    cfg.spec_control = control_points().back();
    cfg.spec_control.budget_max = 1;
    const auto r = parallel_er_sim(g, cfg, 16);
    demoted += r.engine.spec_demotions + r.engine.spec_rewindows;
    deferred += r.engine.spec_budget_deferrals;
  }
  EXPECT_GT(demoted, 0u);
  EXPECT_GT(deferred, 0u);
}

TEST(SpecControl, DemotionsReconcileWithWasteLedger) {
  // Entry-level events: each demote/re-window is one cancel in its ledger
  // row, with no units or compute time attached (nothing had run yet).
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const UniformRandomTree g(5, 7, seed, -1000, 1000);
    auto cfg = deep_cfg(core::SpecRankPolicy::kStealAware);
    cfg.search_depth = 7;
    cfg.serial_depth = 5;
    cfg.spec_control.bound_demote = true;
    const auto r = parallel_er_sim(g, cfg, 16);
    EXPECT_EQ(r.waste.cause_cancels(core::WasteCause::kSpecDemoted),
              r.engine.spec_demotions);
    EXPECT_EQ(r.waste.cause_cancels(core::WasteCause::kSpecRewindowed),
              r.engine.spec_rewindows);
    EXPECT_EQ(r.waste.cause_units(core::WasteCause::kSpecDemoted), 0u);
    EXPECT_EQ(r.waste.cause_ns(core::WasteCause::kSpecRewindowed), 0u);
  }
}

// ---------------------------------------------------------------------------
// Thread-runtime sweeps and hammers (the tsan targets).
// ---------------------------------------------------------------------------

TEST(SpecControlThreads, SweepThreadsAndPolicies) {
  // Determinism-of-result sweep: every (threads, control) point must report
  // the serial root value — demotion/cancel and the budget gate may only
  // reschedule work, never lose or duplicate a result.
  core::SpecControlConfig full;
  full.bound_demote = true;
  full.budget = true;
  full.budget_max = 2;
  auto points = control_points();
  points.push_back(full);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const UniformRandomTree g(4, 6, seed, -80, 80);
    const Value oracle = negmax_search(g, 6).value;
    for (const auto& control : points) {
      for (int threads : {2, 8}) {
        auto cfg = deep_cfg(core::SpecRankPolicy::kStealAware);
        cfg.spec_control = control;
        const auto r = parallel_er_threads(g, cfg, threads);
        EXPECT_EQ(r.value, oracle) << "seed=" << seed << " t=" << threads;
      }
    }
  }
}

TEST(SpecControlThreads, DemoteCancelHammer) {
  // Stress the pop-time demotion path under real contention: 8 threads, a
  // tight budget, many repeats.
  core::SpecControlConfig full;
  full.bound_demote = true;
  full.budget = true;
  full.budget_max = 1;
  const UniformRandomTree g(5, 6, 7, -500, 500);
  const Value oracle = negmax_search(g, 6).value;
  auto cfg = deep_cfg(core::SpecRankPolicy::kStealAware);
  cfg.spec_control = full;
  for (int rep = 0; rep < 8; ++rep) {
    const auto r = parallel_er_threads(g, cfg, 8);
    ASSERT_EQ(r.value, oracle) << "rep=" << rep;
  }
}

TEST(OrderingTablesHammer, ConcurrentHistoryAndKillers) {
  // 8 writers race add/probe/record/is_killer plus periodic new_search on
  // one shared table set; all ops are relaxed atomics — tsan must stay
  // silent and counters must respect their packing invariants.
  OrderingTables tables;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&tables, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      std::uint64_t key = 0x9e3779b97f4a7c15ull * static_cast<unsigned>(t + 1);
      for (int i = 0; i < 50000; ++i) {
        key = key * 6364136223846793005ull + 1442695040888963407ull;
        tables.history.add(key, static_cast<std::uint32_t>(i % 97) + 1);
        (void)tables.history.probe(key ^ 0xff);
        tables.killers.record(i % KillerTable::kMaxPlies, key | 1);
        (void)tables.killers.is_killer((i + 1) % KillerTable::kMaxPlies, key);
        if (i % 8192 == 0 && t == 0) tables.new_search();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  // Saturating 24-bit counters: nothing probes above the cap.
  std::uint64_t key = 1;
  for (int i = 0; i < 1000; ++i) {
    key = key * 6364136223846793005ull + 1442695040888963407ull;
    EXPECT_LE(tables.history.probe(key), 0x00ffffffu);
  }
}

TEST(OrderingTables, HistoryAgesOutOnNewSearch) {
  HistoryTable h(6);
  h.add(42, 100);
  h.add(42, 50);
  EXPECT_EQ(h.probe(42), 150u);
  h.new_search();
  EXPECT_EQ(h.probe(42), 0u);
  h.add(42, 7);
  EXPECT_EQ(h.probe(42), 7u);
}

TEST(OrderingTables, KillerSlotsKeepLastTwoDistinct) {
  KillerTable k;
  k.record(3, 0xaa);
  k.record(3, 0xbb);
  EXPECT_TRUE(k.is_killer(3, 0xaa));
  EXPECT_TRUE(k.is_killer(3, 0xbb));
  k.record(3, 0xcc);  // evicts 0xaa (second slot now 0xbb)
  EXPECT_TRUE(k.is_killer(3, 0xcc));
  EXPECT_TRUE(k.is_killer(3, 0xbb));
  EXPECT_FALSE(k.is_killer(3, 0xaa));
  EXPECT_FALSE(k.is_killer(4, 0xcc)) << "plies are independent";
  k.record(3, 0xcc);  // re-recording the front slot must not duplicate it
  EXPECT_TRUE(k.is_killer(3, 0xbb));
  k.clear();
  EXPECT_FALSE(k.is_killer(3, 0xcc));
}

}  // namespace
}  // namespace ers
