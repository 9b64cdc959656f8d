// The shared move-ordering tables (search/ordering.hpp, DESIGN.md §17):
// history aging, killer slots, and a concurrency hammer.  Own test binary
// so the hammer rides the tsan lane (ctest -L tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "search/ordering.hpp"

namespace ers {
namespace {

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
