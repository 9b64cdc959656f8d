// The unit kernel (DESIGN.md §18): under the default alpha-beta kernel,
// parallel ER — on real threads at several shard counts and on the
// simulator — must return serial alpha-beta's root value and a best move
// that achieves it, at every serial depth and with or without the shared
// tables.  Own binary so the thread-runtime sweep rides the tsan lane.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "connect4/connect4.hpp"
#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/ordering.hpp"

namespace ers {
namespace {

enum class Tables { kNone, kTt, kTtAndOrdering };

const char* tables_name(Tables t) {
  switch (t) {
    case Tables::kNone: return "none";
    case Tables::kTt: return "tt";
    case Tables::kTtAndOrdering: return "tt+ordering";
  }
  return "?";
}

/// Fails unless `move`, when present, is a root child whose alpha-beta
/// value (searched from ply 1) negates to `root_value`.
template <Game G>
void check_best_move(const G& g, const core::EngineConfig& cfg,
                     const std::optional<typename G::Position>& move,
                     Value root_value, const std::string& where) {
  if (!move) return;
  std::vector<typename G::Position> kids;
  g.generate_children(g.root(), kids);
  bool found = false;
  for (const auto& k : kids) found = found || k == *move;
  ASSERT_TRUE(found) << where << ": best move is no root child";
  AlphaBetaSearcher<G> ab(g, cfg.search_depth, cfg.ordering);
  EXPECT_EQ(negate(ab.run_from(*move, 1).value), root_value)
      << where << ": best move does not achieve the root value";
}

/// Every serial depth × table setting × {threads {1,2,4} × shards {1,4},
/// simulator}: root value equals serial alpha-beta's.
template <Game G>
void sweep(const G& g, int depth, OrderingPolicy ordering,
           const std::string& name) {
  const Value oracle = alpha_beta_search(g, depth, ordering).value;
  for (int serial = 0; serial <= depth; ++serial) {
    for (Tables tables : {Tables::kNone, Tables::kTt, Tables::kTtAndOrdering}) {
      ConcurrentTranspositionTable tt(12);
      OrderingTables order;
      core::EngineConfig cfg;
      cfg.search_depth = depth;
      cfg.serial_depth = serial;
      cfg.ordering = ordering;
      if (tables != Tables::kNone) cfg.shared_table = &tt;
      if (tables == Tables::kTtAndOrdering) cfg.order_tables = &order;
      ASSERT_EQ(cfg.unit_kernel, core::UnitKernel::kAlphaBeta);
      const std::string at = name + " serial=" + std::to_string(serial) +
                             " tables=" + tables_name(tables);
      for (int threads : {1, 2, 4}) {
        for (int shards : {1, 4}) {
          const auto r = parallel_er_threads(g, cfg, threads, 1, shards);
          const std::string where = at + " threads=" + std::to_string(threads) +
                                    " shards=" + std::to_string(shards);
          EXPECT_EQ(r.value, oracle) << where;
          check_best_move(g, cfg, r.best_move, r.value, where);
        }
      }
      const auto s = parallel_er_sim(g, cfg, 4);
      EXPECT_EQ(s.value, oracle) << at << " sim";
      check_best_move(g, cfg, s.best_move, s.value, at + " sim");
    }
  }
}

TEST(UnitKernelDifferential, RandomTreesMatchSerialAlphaBeta) {
  for (int b = 2; b <= 8; ++b) {
    const int depth = b <= 4 ? 5 : 4;
    for (std::uint64_t seed : {3u, 17u}) {
      const UniformRandomTree g(b, depth, seed * 100 + b, -500, 500);
      sweep(g, depth, OrderingPolicy{},
            "random b=" + std::to_string(b) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(UnitKernelDifferential, OthelloMatchesSerialAlphaBeta) {
  OrderingPolicy paper_sort;
  paper_sort.sort_by_static_value = true;
  paper_sort.max_sort_ply = 6;
  for (int idx = 1; idx <= 3; ++idx) {
    const othello::OthelloGame g(othello::paper_position(idx));
    sweep(g, 4, paper_sort, "O" + std::to_string(idx));
  }
}

TEST(UnitKernelDifferential, ConnectFourMatchesSerialAlphaBeta) {
  sweep(connect4::Connect4{}, 5, OrderingPolicy{}, "connect4");
}

TEST(UnitKernel, UsesTheSharedTableAtSerialDepthZero) {
  // At serial depth 0 the root is the cutover, so the whole search is one
  // kSerialFull unit and no kExpand unit ever probes the table: a warm
  // table can only pay off through the kernel itself.
  const othello::OthelloGame g(othello::paper_position(2));
  ConcurrentTranspositionTable tt(16);
  core::EngineConfig cfg;
  cfg.search_depth = 5;
  cfg.serial_depth = 0;
  cfg.shared_table = &tt;
  const auto cold = parallel_er_threads(g, cfg, 2);
  const auto warm = parallel_er_threads(g, cfg, 2);
  EXPECT_EQ(cold.engine.serial_units, 1u);
  EXPECT_EQ(warm.engine.serial_units, 1u);
  EXPECT_EQ(cold.value, alpha_beta_search(g, 5).value);
  EXPECT_EQ(warm.value, cold.value);
  EXPECT_GT(cold.engine.search.tt_stores, 0u);
  EXPECT_GT(warm.engine.search.tt_hits, 0u);
  EXPECT_LT(warm.engine.search.nodes_generated(),
            cold.engine.search.nodes_generated());
}

}  // namespace
}  // namespace ers
