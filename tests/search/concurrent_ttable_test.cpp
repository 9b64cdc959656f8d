// Lock-free shared transposition table: single-threaded semantics, torn-write
// safety under real thread contention, and end-to-end equivalence of the
// parallel ER runtime searching through one shared table.

#include "search/concurrent_ttable.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "runtime/thread_executor.hpp"
#include "search/alpha_beta.hpp"
#include "util/rng.hpp"

namespace ers {
namespace {

TEST(ConcurrentTtable, EmptyTableNeverHits) {
  ConcurrentTranspositionTable t(8);
  EXPECT_EQ(t.capacity(), 256u);
  EXPECT_EQ(t.occupancy(), 0u);
  TtHit h;
  EXPECT_FALSE(t.probe(0, h));      // the all-zero slot must not validate key 0
  EXPECT_FALSE(t.probe(12345, h));
}

TEST(ConcurrentTtable, PackingRoundTrip) {
  ConcurrentTranspositionTable t(8);
  struct Case {
    std::uint64_t key;
    Value value;
    int depth;
    BoundKind bound;
  };
  const Case cases[] = {
      {1, 0, 0, BoundKind::kExact},
      {2, kValueInf, 255, BoundKind::kLower},
      {3, -kValueInf, 7, BoundKind::kUpper},
      {4, -1, 1, BoundKind::kExact},
      {0, 42, 3, BoundKind::kLower},  // key 0 must round-trip too
  };
  for (const auto& c : cases) {
    t.store(c.key, c.value, c.depth, c.bound);
    TtHit h;
    ASSERT_TRUE(t.probe(c.key, h)) << c.key;
    EXPECT_EQ(h.value, c.value);
    EXPECT_EQ(h.depth, c.depth);
    EXPECT_EQ(h.bound, c.bound);
  }
}

TEST(ConcurrentTtable, DepthClampsAt255) {
  ConcurrentTranspositionTable t(4);
  t.store(5, 1, 1000, BoundKind::kExact);
  TtHit h;
  ASSERT_TRUE(t.probe(5, h));
  EXPECT_EQ(h.depth, 255);
}

TEST(ConcurrentTtable, DepthPreferredWithinGeneration) {
  ConcurrentTranspositionTable t(4);
  const std::uint64_t a = 5;
  const std::uint64_t b = 5 + 16;  // same slot (16 slots), different key
  t.store(a, 1, 6, BoundKind::kExact);
  t.store(b, 2, 3, BoundKind::kExact);  // shallower: must not evict a
  TtHit h;
  EXPECT_TRUE(t.probe(a, h));
  EXPECT_FALSE(t.probe(b, h));
  t.store(b, 2, 7, BoundKind::kExact);  // deeper: evicts
  EXPECT_FALSE(t.probe(a, h));
  ASSERT_TRUE(t.probe(b, h));
  EXPECT_EQ(h.value, 2);
}

TEST(ConcurrentTtable, SameKeyAlwaysRefreshes) {
  ConcurrentTranspositionTable t(4);
  t.store(9, 1, 6, BoundKind::kExact);
  t.store(9, 2, 2, BoundKind::kLower);  // same position, fresher, shallower
  TtHit h;
  ASSERT_TRUE(t.probe(9, h));
  EXPECT_EQ(h.value, 2);
  EXPECT_EQ(h.depth, 2);
  EXPECT_EQ(h.bound, BoundKind::kLower);
}

TEST(ConcurrentTtable, NewSearchAgesDepthProtection) {
  ConcurrentTranspositionTable t(4);
  const std::uint64_t a = 5;
  const std::uint64_t b = 5 + 16;
  t.store(a, 1, 9, BoundKind::kExact);
  t.new_search();
  // Old-generation depth no longer protects: a shallow fresh store evicts.
  t.store(b, 2, 1, BoundKind::kExact);
  TtHit h;
  EXPECT_FALSE(t.probe(a, h));
  ASSERT_TRUE(t.probe(b, h));
  EXPECT_EQ(h.value, 2);
}

TEST(ConcurrentTtable, EntriesSurviveNewSearchForProbing) {
  ConcurrentTranspositionTable t(4);
  t.store(9, 3, 4, BoundKind::kExact);
  t.new_search();
  TtHit h;
  ASSERT_TRUE(t.probe(9, h));  // values stay probeable across epochs
  EXPECT_EQ(h.value, 3);
}

TEST(ConcurrentTtable, ClearEmptiesTable) {
  ConcurrentTranspositionTable t(4);
  t.store(1, 1, 1, BoundKind::kExact);
  EXPECT_EQ(t.occupancy(), 1u);
  t.clear();
  EXPECT_EQ(t.occupancy(), 0u);
  TtHit h;
  EXPECT_FALSE(t.probe(1, h));
}

// The payload stored for a key is a pure function of the key, so any probe
// that validates must reproduce it exactly; a torn xkey/data pair that
// slipped past the XOR check would show up as a mismatched payload.
Value value_of(std::uint64_t key) {
  return static_cast<Value>(static_cast<std::int64_t>(splitmix64(key) % 20001) -
                            10000);
}
int depth_of(std::uint64_t key) { return static_cast<int>(key % 200); }
BoundKind bound_of(std::uint64_t key) {
  return static_cast<BoundKind>(key % 3);
}

TEST(ConcurrentTtable, HammerNoTornReads) {
  // Small table, many colliding keys, all threads probing and storing at
  // once.  Under TSan this is also the data-race check for the slot layout.
  ConcurrentTranspositionTable t(8);
  constexpr int kThreads = 4;
  constexpr int kOps = 40000;
  constexpr std::uint64_t kKeys = 4096;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      std::uint64_t rng = splitmix64(static_cast<std::uint64_t>(w) + 1);
      for (int i = 0; i < kOps; ++i) {
        rng = splitmix64(rng);
        const std::uint64_t key = rng % kKeys;
        if ((rng >> 32) & 1) {
          t.store(key, value_of(key), depth_of(key), bound_of(key));
        } else {
          TtHit h;
          if (t.probe(key, h)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            if (h.value != value_of(key) || h.depth != depth_of(key) ||
                h.bound != bound_of(key))
              mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
}

core::EngineConfig cfg(int depth, int serial,
                       ConcurrentTranspositionTable* table) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  c.shared_table = table;
  return c;
}

TEST(SharedTtParallelEr, MatchesSerialAlphaBetaOnRandomTrees) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const UniformRandomTree g(4, 5, seed, -100, 100);
    const Value oracle = alpha_beta_search(g, 5).value;
    ConcurrentTranspositionTable table(14);
    for (int threads : {2, 4}) {
      const auto r = parallel_er_threads(g, cfg(5, 3, &table), threads);
      EXPECT_EQ(r.value, oracle) << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(SharedTtParallelEr, MatchesSerialAlphaBetaOnOthello) {
  // Midgame positions at depth 5: every move adds a disc, so a position
  // cannot recur at two different plies and depth-covering hits are always
  // from the same remaining depth — root equivalence is exact.
  for (int idx = 1; idx <= 3; ++idx) {
    const othello::OthelloGame g(othello::paper_position(idx));
    const Value oracle = alpha_beta_search(g, 5).value;
    ConcurrentTranspositionTable table(16);
    const auto r = parallel_er_threads(g, cfg(5, 3, &table), 4);
    EXPECT_EQ(r.value, oracle) << "O" << idx;
  }
}

TEST(SharedTtParallelEr, TableTrafficIsCounted) {
  const othello::OthelloGame g(othello::paper_position(1));
  ConcurrentTranspositionTable table(16);
  const auto r = parallel_er_threads(g, cfg(5, 3, &table), 4);
  EXPECT_GT(r.engine.search.tt_probes, 0u);
  EXPECT_GT(r.engine.search.tt_stores, 0u);
  EXPECT_LE(r.engine.search.tt_hits, r.engine.search.tt_probes);
  EXPECT_GT(table.occupancy(), 0u);
}

TEST(SharedTtParallelEr, WarmTableSearchesFewerNodes) {
  // Second search of the same position through the same table: the root's
  // exact entry (and everything below it) is already known.
  const othello::OthelloGame g(othello::paper_position(2));
  ConcurrentTranspositionTable table(16);
  const auto cold = parallel_er_threads(g, cfg(5, 3, &table), 2);
  const auto warm = parallel_er_threads(g, cfg(5, 3, &table), 2);
  EXPECT_EQ(warm.value, cold.value);
  EXPECT_LT(warm.engine.search.nodes_generated(),
            cold.engine.search.nodes_generated());
}

TEST(SharedTtParallelEr, ExecutorReportsHitRate) {
  const othello::OthelloGame g(othello::paper_position(3));
  ConcurrentTranspositionTable table(16);
  table.new_search();
  core::Engine<othello::OthelloGame> engine(g, cfg(5, 3, &table));
  runtime::ThreadExecutor<core::Engine<othello::OthelloGame>> exec(4);
  const auto report = exec.run(engine);
  EXPECT_GT(report.tt_probes, 0u);
  EXPECT_LE(report.tt_hits, report.tt_probes);
  EXPECT_GE(report.tt_hit_rate(), 0.0);
  EXPECT_LE(report.tt_hit_rate(), 1.0);
}

}  // namespace
}  // namespace ers
