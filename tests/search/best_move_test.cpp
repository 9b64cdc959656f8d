// The best-move API: every searcher must report a root child that actually
// achieves the root value (the move a game program plays).

#include <gtest/gtest.h>

#include <vector>

#include "connect4/connect4.hpp"
#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"
#include "search/negmax.hpp"
#include "tictactoe/tictactoe.hpp"

namespace ers {
namespace {

/// Exact value of `pos` treated as a subtree root, `depth` plies deep.
template <Game G>
Value value_of_child(const G& g, const typename G::Position& pos, int depth) {
  struct Rooted {
    using Position = typename G::Position;
    const G* game;
    Position start;
    Position root() const { return start; }
    void generate_children(const Position& p, std::vector<Position>& out) const {
      game->generate_children(p, out);
    }
    Value evaluate(const Position& p) const { return game->evaluate(p); }
  };
  return negmax_search(Rooted{&g, pos}, depth).value;
}

TEST(BestMove, AlphaBetaChoiceAchievesRootValue) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const UniformRandomTree g(4, 4, seed, -100, 100);
    AlphaBetaSearcher<UniformRandomTree> s(g, 4);
    const auto r = s.run();
    ASSERT_TRUE(s.best_root_position().has_value()) << seed;
    EXPECT_EQ(negate(value_of_child(g, *s.best_root_position(), 3)), r.value)
        << seed;
  }
}

TEST(BestMove, ErSerialChoiceAchievesRootValue) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const UniformRandomTree g(4, 4, seed, -100, 100);
    ErSerialSearcher<UniformRandomTree> s(g, 4);
    const auto r = s.run();
    ASSERT_TRUE(s.best_root_position().has_value()) << seed;
    EXPECT_EQ(negate(value_of_child(g, *s.best_root_position(), 3)), r.value)
        << seed;
  }
}

TEST(BestMove, ParallelEngineChoiceAchievesRootValue) {
  core::EngineConfig cfg;
  cfg.search_depth = 5;
  cfg.serial_depth = 3;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const UniformRandomTree g(4, 5, seed, -100, 100);
    for (int p : {1, 8}) {
      const auto r = parallel_er_sim(g, cfg, p);
      ASSERT_TRUE(r.best_move.has_value()) << "seed=" << seed << " p=" << p;
      EXPECT_EQ(negate(value_of_child(g, *r.best_move, 4)), r.value)
          << "seed=" << seed << " p=" << p;
    }
  }
}

TEST(BestMove, ThreadRuntimeChoiceAchievesRootValue) {
  core::EngineConfig cfg;
  cfg.search_depth = 5;
  cfg.serial_depth = 3;
  const UniformRandomTree g(4, 5, 33, -100, 100);
  const auto r = parallel_er_threads(g, cfg, 4);
  ASSERT_TRUE(r.best_move.has_value());
  EXPECT_EQ(negate(value_of_child(g, *r.best_move, 4)), r.value);

  // Sorted searches aspirate at the root.  On this Othello position the
  // guess window holds; on the random tree, whose static values predict
  // nothing, it fails and the move comes from the re-search.
  core::EngineConfig sorted = cfg;
  sorted.ordering = OrderingPolicy{.sort_by_static_value = true, .max_sort_ply = 6};
  const othello::OthelloGame o(othello::selfplay_position(11, 3));
  const UniformRandomTree wide(4, 5, 3, -10'000, 10'000);
  for (const int threads : {1, 4}) {
    const auto ro = parallel_er_threads(o, sorted, threads);
    EXPECT_EQ(ro.researches, 0) << "threads=" << threads;
    EXPECT_EQ(ro.value, alpha_beta_search(o, 5, sorted.ordering).value);
    ASSERT_TRUE(ro.best_move.has_value()) << "threads=" << threads;
    EXPECT_EQ(negate(value_of_child(o, *ro.best_move, 4)), ro.value)
        << "threads=" << threads;

    const auto rw = parallel_er_threads(wide, sorted, threads);
    EXPECT_EQ(rw.researches, 1) << "threads=" << threads;
    EXPECT_EQ(rw.value, negmax_search(wide, 5).value);
    ASSERT_TRUE(rw.best_move.has_value()) << "threads=" << threads;
    EXPECT_EQ(negate(value_of_child(wide, *rw.best_move, 4)), rw.value)
        << "threads=" << threads;
  }
}

TEST(BestMove, LeafRootHasNoMove) {
  const UniformRandomTree g(4, 0, 3, -9, 9);
  AlphaBetaSearcher<UniformRandomTree> s(g, 0);
  (void)s.run();
  EXPECT_FALSE(s.best_root_position().has_value());
}

TEST(BestMove, FullySerialEngineReportsNoMove) {
  // serial_depth == 0: the root resolves inside one serial unit, so the
  // engine cannot attribute the value to a child (documented behavior).
  core::EngineConfig cfg;
  cfg.search_depth = 4;
  cfg.serial_depth = 0;
  const UniformRandomTree g(3, 4, 7, -50, 50);
  const auto r = parallel_er_sim(g, cfg, 4);
  EXPECT_FALSE(r.best_move.has_value());
}

TEST(BestMove, Connect4TakesTheImmediateWin) {
  // Side to move has three in column 3 with the fourth cell open.
  const connect4::Connect4 g;
  connect4::Connect4::Position p = g.root();
  for (int col : {3, 0, 3, 0, 3, 0}) {
    std::vector<connect4::Connect4::Position> kids;
    g.generate_children(p, kids);
    for (const auto& k : kids)
      if (connect4::Connect4::move_column(p, k) == col) {
        p = k;
        break;
      }
  }
  struct Rooted {
    using Position = connect4::Connect4::Position;
    Position start;
    Position root() const { return start; }
    void generate_children(const Position& q, std::vector<Position>& out) const {
      connect4::Connect4{}.generate_children(q, out);
    }
    Value evaluate(const Position& q) const {
      return connect4::Connect4{}.evaluate(q);
    }
  };
  const Rooted rooted{p};
  AlphaBetaSearcher<Rooted> s(rooted, 3);
  const auto r = s.run();
  EXPECT_EQ(r.value, connect4::Connect4::kWin);
  ASSERT_TRUE(s.best_root_position().has_value());
  EXPECT_EQ(connect4::Connect4::move_column(p, *s.best_root_position()), 3)
      << "the winning column must be chosen";
}

TEST(BestMove, TicTacToeBlocksOrWins) {
  // X to move with two in a row: the best move completes the line.
  TicTacToe::Position p;
  p.to_move = 0b000000011;  // X on squares 0,1
  p.waiting = 0b000011000;  // O on squares 3,4
  struct Rooted {
    using Position = TicTacToe::Position;
    Position start;
    Position root() const { return start; }
    void generate_children(const Position& q, std::vector<Position>& out) const {
      TicTacToe{}.generate_children(q, out);
    }
    Value evaluate(const Position& q) const { return TicTacToe{}.evaluate(q); }
  };
  const Rooted rooted{p};
  AlphaBetaSearcher<Rooted> s(rooted, 9);
  const auto r = s.run();
  EXPECT_EQ(r.value, TicTacToe::kWin);
  ASSERT_TRUE(s.best_root_position().has_value());
  // The chosen child must have X holding the completed bottom row.
  EXPECT_TRUE(TicTacToe::has_line(s.best_root_position()->waiting));
}

}  // namespace
}  // namespace ers
