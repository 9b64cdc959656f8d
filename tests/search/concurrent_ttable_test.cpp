// Lock-free shared transposition table: single-threaded semantics and
// torn-write safety under real thread contention.

#include "search/concurrent_ttable.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace ers
