// The unit kernel (DESIGN.md §18): under the default alpha-beta kernel,
// parallel ER — on real threads and on the simulator — must return serial
// alpha-beta's root value and a best move that achieves it, at every serial
// depth and with or without the shared tables.  A seeded differential test
// then draws random games and configs and checks each against alpha-beta.
// Own binary so the thread-runtime sweeps ride the tsan lane.

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
#include "util/rng.hpp"

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

/// Every serial depth × table setting × {threads {1,2,4}, simulator}: root
/// value equals serial alpha-beta's.
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
        const auto r = parallel_er_threads(g, cfg, threads);
        const std::string where = at + " threads=" + std::to_string(threads);
        EXPECT_EQ(r.value, oracle) << where;
        check_best_move(g, cfg, r.best_move, r.value, where);
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

// --- seeded differential test across random configs -----------------------

/// One drawn case: a game and a full engine/runtime config.  describe()
/// prints every draw, so a failing case can be rebuilt by hand.
struct DiffCase {
  int index = 0;
  std::string game;
  int depth = 0;
  int threads = 1;
  int serial_depth = 0;
  core::UnitKernel kernel = core::UnitKernel::kAlphaBeta;
  core::SpeculationConfig speculation;
  core::SpecRankPolicy rank = core::SpecRankPolicy::kFewestEChildren;
  bool sort = false;
  bool tt = false;
  bool order_tables = false;

  [[nodiscard]] std::string describe() const {
    return "case " + std::to_string(index) + ": " + game +
           " depth=" + std::to_string(depth) +
           " threads=" + std::to_string(threads) +
           " serial_depth=" + std::to_string(serial_depth) + " kernel=" +
           (kernel == core::UnitKernel::kAlphaBeta ? "alpha-beta" : "serial-er") +
           " parallel_refutation=" +
           std::to_string(speculation.parallel_refutation) +
           " multiple_e_children=" +
           std::to_string(speculation.multiple_e_children) +
           " early_e_child_choice=" +
           std::to_string(speculation.early_e_child_choice) +
           " spec_rank=" + std::to_string(static_cast<int>(rank)) +
           " sort=" + std::to_string(sort) + " tt=" + std::to_string(tt) +
           " order_tables=" + std::to_string(order_tables);
  }
};

template <Game G>
void run_diff_case(const G& g, const DiffCase& c) {
  ConcurrentTranspositionTable tt(12);
  OrderingTables order;
  core::EngineConfig cfg;
  cfg.search_depth = c.depth;
  cfg.serial_depth = c.serial_depth;
  cfg.unit_kernel = c.kernel;
  cfg.speculation = c.speculation;
  cfg.spec_rank = c.rank;
  cfg.ordering.sort_by_static_value = c.sort;
  if (c.tt) cfg.shared_table = &tt;
  if (c.order_tables) cfg.order_tables = &order;
  const Value oracle = alpha_beta_search(g, c.depth, cfg.ordering).value;
  const auto r = parallel_er_threads(g, cfg, c.threads);
  const std::string where = c.describe();
  EXPECT_EQ(r.value, oracle) << where;
  check_best_move(g, cfg, r.best_move, r.value, where);
}

TEST(UnitKernelDifferential, SeededRandomConfigsMatchAlphaBeta) {
  // Every draw comes from one fixed seed, so the case list is the same on
  // every run; the thread schedule is what varies between runs (the tsan
  // lane repeats this binary).
  Xoshiro256StarStar rng(0x5eed'd1ffull);
  constexpr int kCases = 60;
  constexpr int kThreads[] = {1, 2, 4};
  for (int i = 0; i < kCases; ++i) {
    DiffCase c;
    c.index = i;
    const std::uint64_t kind = rng.below(4);  // 0-1 random, 2 Othello, 3 C4
    int branching = 0;
    std::uint64_t tree_seed = 0;
    Value range = 0;
    int othello_plies = 0;
    if (kind <= 1) {
      branching = static_cast<int>(rng.between(2, 8));
      int max_depth = 1;
      for (std::int64_t leaves = branching; leaves * branching <= 40'000;
           leaves *= branching)
        ++max_depth;
      c.depth = static_cast<int>(rng.between(2, max_depth));
      tree_seed = rng();
      constexpr Value kRanges[] = {5, 100, 10'000};
      range = kRanges[rng.below(3)];
      c.game = "random b=" + std::to_string(branching) +
               " seed=" + std::to_string(tree_seed) +
               " range=" + std::to_string(range);
    } else if (kind == 2) {
      othello_plies = static_cast<int>(rng.between(4, 30));
      tree_seed = rng();
      c.depth = static_cast<int>(rng.between(2, 4));
      c.game = "othello selfplay plies=" + std::to_string(othello_plies) +
               " seed=" + std::to_string(tree_seed);
    } else {
      c.depth = static_cast<int>(rng.between(2, 6));
      c.game = "connect4 root";
    }
    c.threads = kThreads[rng.below(3)];
    c.serial_depth = static_cast<int>(rng.between(0, c.depth));
    c.kernel = rng.below(2) == 0 ? core::UnitKernel::kAlphaBeta
                                 : core::UnitKernel::kSerialEr;
    c.speculation.parallel_refutation = rng.below(2) == 0;
    c.speculation.multiple_e_children = rng.below(2) == 0;
    c.speculation.early_e_child_choice = rng.below(2) == 0;
    c.rank = static_cast<core::SpecRankPolicy>(rng.below(3));
    c.sort = rng.below(2) == 0;
    const bool hashed = kind != 3;  // Connect Four has no transposition key
    const bool tt = rng.below(2) == 0;
    const bool order_tables = rng.below(2) == 0;
    c.tt = hashed && tt;
    c.order_tables = hashed && order_tables;
    SCOPED_TRACE(c.describe());
    if (kind <= 1) {
      run_diff_case(UniformRandomTree(branching, c.depth, tree_seed, -range,
                                      range),
                    c);
    } else if (kind == 2) {
      run_diff_case(othello::OthelloGame(
                        othello::selfplay_position(othello_plies, tree_seed)),
                    c);
    } else {
      run_diff_case(connect4::Connect4{}, c);
    }
    if (::testing::Test::HasFailure()) return;  // the first failure is enough
  }
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
