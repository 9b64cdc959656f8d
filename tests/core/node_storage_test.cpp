// Two-tier node storage (DESIGN.md §15): the occupancy gauges, exact values
// on speculative workloads whose dead subtrees keep their cold records, and
// a concurrent hammer for the ThreadSanitizer and AddressSanitizer lanes.

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

/// Single-threaded protocol drive to completion.
void drive(EngineT& engine) {
  while (!engine.done()) {
    auto item = engine.acquire();
    if (!item) break;
    engine.commit(*item, engine.compute(*item));
  }
}

/// The gauges add up, and only expanded nodes hold a cold record: leaves
/// and cutover nodes resolved by their first unit get none.
void expect_gauges(const core::EngineMemStats& m) {
  EXPECT_GT(m.hot_bytes, 0u);
  EXPECT_GT(m.position_bytes, 0u);
  EXPECT_GT(m.cold_bytes, 0u);
  EXPECT_EQ(m.peak_bytes, m.hot_bytes + m.position_bytes + m.cold_bytes);
  EXPECT_GT(m.cold_allocated, 0u);
  EXPECT_LT(m.cold_allocated, m.live_nodes);
}

TEST(NodeStorage, GaugesAccountColdRecords) {
  const UniformRandomTree g(4, 6, 31, -90, 90);
  EngineT engine(g, storage_config(6, 4));
  drive(engine);
  ASSERT_TRUE(engine.done());
  expect_gauges(engine.mem_stats());
}

/// Deep speculation (the paper's three mechanisms) at 8 simulated processors:
/// cancels and ancestor cutoffs kill subtrees mid-flight.  Dead subtrees
/// keep their records and bookkeeping until the engine dies, so commits and
/// combines still land in them; the engine reclaims their work, not their
/// memory — pop-time dropping must discard it without touching the root
/// value.
template <Game G>
void expect_exact_under_speculation(const G& g, int depth) {
  const auto r = parallel_er_sim(g, storage_config(depth, 4), 8);
  EXPECT_EQ(r.value, negmax_search(g, depth).value);
  EXPECT_GT(r.waste.total_cancels(), 0u) << "no subtree died";
  expect_gauges(r.mem);
}

TEST(NodeStorage, SpeculationWorkloadReclaimsDeadSubtrees) {
  // A wide random tree.
  const UniformRandomTree g(5, 6, 23, -100, 100);
  expect_exact_under_speculation(g, 6);
}

TEST(NodeStorage, OthelloSpeculationWorkloadReclaims) {
  // The Figure 10 O2 position, whose branching varies from node to node.
  const othello::OthelloGame g(othello::paper_position(2));
  expect_exact_under_speculation(g, 6);
}

/// Eight raw protocol drivers race one engine to completion, one unit per
/// acquire/commit pair.
void hammer(EngineT& engine) {
  std::vector<std::thread> drivers;
  for (int t = 0; t < 8; ++t) {
    drivers.emplace_back([&engine] {
      while (!engine.done()) {
        if (auto item = engine.acquire()) {
          engine.commit(*item, engine.compute(*item));
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
}

TEST(NodeStorage, ConcurrentDriversHammer) {
  // tsan target: many raw protocol drivers race commits, which attach cold
  // records and kill subtrees, against lock-free compute reads of the
  // in-flight node's record and position.  An attach that races such a
  // read shows up as a data race here.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const UniformRandomTree g(4, 6, seed + 50, -100, 100);
    const Value oracle = negmax_search(g, 6).value;
    EngineT engine(g, storage_config(6, 4));
    hammer(engine);
    ASSERT_TRUE(engine.done()) << "seed=" << seed;
    EXPECT_EQ(engine.root_value(), oracle) << "seed=" << seed;
    expect_gauges(engine.mem_stats());
  }
  // A parallel region of 15k-21k nodes: the arenas grow across 15-21
  // chunks of 1,024 slots, so the chunk table grows while other drivers
  // compute through pointers into earlier chunks.
  const UniformRandomTree wide(5, 8, 61, -100, 100);
  EngineT engine(wide, storage_config(8, 7));
  hammer(engine);
  ASSERT_TRUE(engine.done());
  EXPECT_EQ(engine.root_value(), alpha_beta_search(wide, 8).value);
  const core::EngineMemStats m = engine.mem_stats();
  EXPECT_GT(m.live_nodes, 8u * 1024u);
  expect_gauges(m);
}

}  // namespace
}  // namespace ers
