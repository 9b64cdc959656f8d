// Two-tier node storage (DESIGN.md §15): occupancy gauges, dead-subtree
// reclamation, a reproducible pop order with reclamation active, a concurrent
// reclamation hammer for the ThreadSanitizer lane, and the poison check
// that turns a cold-record use-after-reclaim into an ERS_DCHECK failure.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/negmax.hpp"

namespace ers {
namespace {

using EngineT = core::Engine<UniformRandomTree>;

core::EngineConfig storage_config(int depth, int serial_depth) {
  core::EngineConfig cfg;
  cfg.search_depth = depth;
  cfg.serial_depth = serial_depth;
  return cfg;
}

/// Single-threaded protocol drive to completion; returns the pop order.
std::vector<std::uint32_t> drive(EngineT& engine) {
  std::vector<std::uint32_t> order;
  while (!engine.done()) {
    auto item = engine.acquire();
    if (!item) break;
    order.push_back(item->node);
    engine.commit(*item, engine.compute(*item));
  }
  return order;
}

/// The conservation law of the cold-record counters: every allocation is
/// either still live or has been reclaimed, never both, never neither.
void expect_cold_accounting(const core::EngineMemStats& m) {
  EXPECT_EQ(m.cold_allocated, m.cold_live + m.cold_reclaimed);
  EXPECT_EQ(m.peak_bytes, m.hot_bytes + m.position_bytes + m.slab_bytes);
}

TEST(NodeStorage, GaugesAccountAllocationsAndReclaims) {
  const UniformRandomTree g(4, 6, 31, -90, 90);
  EngineT engine(g, storage_config(6, 4));
  drive(engine);
  ASSERT_TRUE(engine.done());
  const core::EngineMemStats m = engine.mem_stats();
  EXPECT_GT(m.live_nodes, 0u);
  EXPECT_GT(m.hot_bytes, 0u);
  EXPECT_GT(m.position_bytes, 0u);
  EXPECT_GT(m.cold_allocated, 0u);
  EXPECT_GT(m.slab_bytes, 0u);
  expect_cold_accounting(m);
  // Finish-time reclamation alone recycles almost everything: a completed
  // search holds no expansion state beyond what in-flight refusal pinned.
  EXPECT_GT(m.cold_reclaimed, 0u);
  EXPECT_LT(m.cold_live, m.cold_allocated);
}

TEST(NodeStorage, SpeculationWorkloadReclaimsDeadSubtrees) {
  // Wide tree, deep speculation (all toggles on by default): spec
  // cancellations and ancestor cutoffs kill subtrees mid-flight, so the
  // dead-drop reclaim path fires, not just the finish-time sweep.  The
  // acceptance gauge of the overhaul: cold_reclaimed > 0 on a speculative
  // workload, with the root value still exact.
  const UniformRandomTree g(5, 6, 23, -100, 100);
  const Value oracle = negmax_search(g, 6).value;
  const auto r = parallel_er_sim(g, storage_config(6, 4), 8);
  EXPECT_EQ(r.value, oracle);
  EXPECT_GT(r.mem.cold_reclaimed, 0u);
  expect_cold_accounting(r.mem);
}

TEST(NodeStorage, OthelloSpeculationWorkloadReclaims) {
  // The acceptance workload: the Figure 10 O2 position with speculation on
  // (the engine default).  Othello's varying branching exercises several
  // slab size classes, and the midgame position drives enough speculative
  // expansion that cancelled subtrees return records well before the
  // finish-time sweep.
  const othello::OthelloGame g(othello::paper_position(2));
  const auto r = parallel_er_sim(g, storage_config(6, 4), 8);
  EXPECT_EQ(r.value, negmax_search(g, 6).value);
  EXPECT_GT(r.mem.cold_reclaimed, 0u);
  expect_cold_accounting(r.mem);
}

TEST(NodeStorage, PopOrderUnchangedByReclamation) {
  // Reclamation runs inside commits and must not steer the schedule: two
  // drives of the same tree pop the same order and reclaim the same
  // records.  (SchedulePin pins the order itself to recorded values.)
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const UniformRandomTree g(4, 5, seed + 70, -80, 80);
    EngineT base(g, storage_config(5, 3));
    const std::vector<std::uint32_t> base_order = drive(base);
    const core::EngineMemStats bm = base.mem_stats();
    EXPECT_GT(bm.cold_reclaimed, 0u);
    EXPECT_EQ(base.root_value(), negmax_search(g, 5).value);
    EngineT again(g, storage_config(5, 3));
    EXPECT_EQ(drive(again), base_order) << "seed=" << seed;
    const core::EngineMemStats m = again.mem_stats();
    EXPECT_EQ(m.cold_reclaimed, bm.cold_reclaimed);
    expect_cold_accounting(m);
  }
}

/// Eight raw protocol drivers race one engine to completion.  Batch 1
/// drives the single-unit acquire/commit calls, larger batches the batch
/// forms.
void hammer(EngineT& engine, std::size_t k) {
  std::vector<std::thread> drivers;
  for (int t = 0; t < 8; ++t) {
    drivers.emplace_back([&engine, k] {
      std::vector<core::WorkItem> items;
      std::vector<EngineT::CommitEntry> batch;
      while (!engine.done()) {
        items.clear();
        batch.clear();
        if (k == 1) {
          if (auto item = engine.acquire()) {
            engine.commit(*item, engine.compute(*item));
          } else {
            std::this_thread::yield();
          }
          continue;
        }
        if (engine.acquire_batch(k, items) == 0) {
          std::this_thread::yield();
          continue;
        }
        for (const core::WorkItem& item : items)
          batch.push_back({item, engine.compute(item)});
        engine.commit_batch(batch);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
}

TEST(NodeStorage, ReclamationHammer) {
  // tsan target: many raw protocol drivers race commits while reclamation
  // recycles cold records through the freelists — the full
  // alloc/dead-drop/finish/reuse cycle under contention.  A reclaim that
  // races a lock-free compute read shows up as a data race here, and the
  // counter conservation law catches double reclaims that happen to race
  // cleanly.
  for (const std::size_t k : {std::size_t{4}, std::size_t{1}}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const UniformRandomTree g(4, 6, seed + 50, -100, 100);
      const Value oracle = negmax_search(g, 6).value;
      EngineT engine(g, storage_config(6, 4));
      hammer(engine, k);
      ASSERT_TRUE(engine.done()) << "seed=" << seed << " batch=" << k;
      EXPECT_EQ(engine.root_value(), oracle)
          << "seed=" << seed << " batch=" << k;
      const core::EngineMemStats m = engine.mem_stats();
      EXPECT_GT(m.cold_reclaimed, 0u);
      expect_cold_accounting(m);
    }
  }
  // A parallel region of 15k-21k nodes: the arenas grow across 15-21
  // chunks of 1,024 slots, so the chunk table grows while other drivers
  // compute through pointers into earlier chunks.
  const UniformRandomTree wide(5, 8, 61, -100, 100);
  EngineT engine(wide, storage_config(8, 7));
  hammer(engine, 4);
  ASSERT_TRUE(engine.done());
  EXPECT_EQ(engine.root_value(), alpha_beta_search(wide, 8).value);
  const core::EngineMemStats m = engine.mem_stats();
  EXPECT_GT(m.live_nodes, 8u * 1024u);
  expect_cold_accounting(m);
}

#if !defined(NDEBUG) && GTEST_HAS_DEATH_TEST
TEST(NodeStorageDeathTest, UseAfterReclaimTripsPoisonCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const UniformRandomTree g(4, 5, 41, -70, 70);
  EngineT engine(g, storage_config(5, 3));
  // Capture the root's cold record while it is live: the check passes.
  const void* live = nullptr;
  while (!engine.done() && live == nullptr) {
    auto item = engine.acquire();
    ASSERT_TRUE(item.has_value());
    engine.commit(*item, engine.compute(*item));
    live = engine.debug_cold_ptr(0);
  }
  ASSERT_NE(live, nullptr) << "root never expanded";
  EngineT::debug_assert_cold_live(live);  // live record: no death
  drive(engine);
  ASSERT_TRUE(engine.done());
  // The finished root's record was reclaimed (pointer cleared, block
  // poisoned in the freelist); re-checking the stale pointer must trip the
  // same ERS_DCHECK the engine's checked_cold accessor uses.
  ASSERT_EQ(engine.debug_cold_ptr(0), nullptr);
  EXPECT_DEATH(EngineT::debug_assert_cold_live(live), "ERS_CHECK failed");
}
#endif

}  // namespace
}  // namespace ers
