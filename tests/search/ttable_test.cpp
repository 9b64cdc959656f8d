// Transposition-table search: AlphaBetaSearcher with a shared
// ConcurrentTranspositionTable attached (the path the engine's unit kernel
// runs), and the Othello Zobrist keys it probes with.  The table's own
// replacement and packing rules are tested in concurrent_ttable_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "othello/zobrist.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/negmax.hpp"
#include "util/rng.hpp"

namespace ers {
namespace {

template <Game G>
SearchResult search_with_table(const G& g, int depth,
                               ConcurrentTranspositionTable& table) {
  return AlphaBetaSearcher<G>(g, depth).with_shared_table(&table).run();
}

TEST(Zobrist, IncrementalHashMatchesFullRecompute) {
  // Walk seeded playouts; Board::hash is maintained move by move and must
  // always equal the from-scratch hash of the resulting position.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    othello::Board b = othello::initial_board();
    std::uint64_t rng = seed;
    for (int step = 0; step < 40 && !othello::is_game_over(b); ++step) {
      auto moves = othello::legal_moves(b);
      if (moves == 0) {
        b = othello::apply_pass(b);
      } else {
        std::vector<int> squares;
        while (moves != 0) squares.push_back(othello::pop_lsb(moves));
        rng = splitmix64(rng);
        b = othello::apply_move(b, squares[rng % squares.size()]);
      }
      ASSERT_EQ(b.hash, othello::zobrist_hash(b)) << "seed=" << seed
                                                  << " step=" << step;
    }
  }
}

TEST(Zobrist, SideToMoveMatters) {
  const othello::Board b = othello::initial_board();
  EXPECT_NE(othello::zobrist_hash(b), othello::zobrist_hash(othello::apply_pass(b)));
}

TEST(Zobrist, DistinctPositionsDistinctHashes) {
  // All depth-3 positions from the start: no collisions expected.
  std::vector<othello::Board> frontier{othello::initial_board()}, next;
  for (int d = 0; d < 3; ++d) {
    for (const auto& b : frontier) {
      auto moves = othello::legal_moves(b);
      while (moves != 0) next.push_back(othello::apply_move(b, othello::pop_lsb(moves)));
    }
    frontier.swap(next);
    next.clear();
  }
  std::vector<std::uint64_t> hashes;
  for (const auto& b : frontier) hashes.push_back(othello::zobrist_hash(b));
  std::sort(hashes.begin(), hashes.end());
  // Transpositions exist (same position via different orders) but the
  // number of *distinct boards* must match the number of distinct hashes.
  std::sort(frontier.begin(), frontier.end(), [](const auto& x, const auto& y) {
    return std::tie(x.black, x.white) < std::tie(y.black, y.white);
  });
  const auto boards_unique =
      std::unique(frontier.begin(), frontier.end()) - frontier.begin();
  const auto hashes_unique = std::unique(hashes.begin(), hashes.end()) - hashes.begin();
  EXPECT_EQ(boards_unique, hashes_unique);
}

TEST(AlphaBetaSharedTable, RootValueMatchesPlainAlphaBetaOnRandomTrees) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const UniformRandomTree g(3, 5, seed, -50, 50);
    ConcurrentTranspositionTable table(12);
    const auto tt = search_with_table(g, 5, table);
    EXPECT_EQ(tt.value, negmax_search(g, 5).value) << seed;
    EXPECT_EQ(tt.value, alpha_beta_search(g, 5).value) << seed;
  }
}

TEST(AlphaBetaSharedTable, RootValueMatchesOnOthello) {
  for (int idx = 1; idx <= 3; ++idx) {
    const othello::OthelloGame g(othello::paper_position(idx));
    ConcurrentTranspositionTable table(16);
    const auto tt = search_with_table(g, 5, table);
    EXPECT_EQ(tt.value, alpha_beta_search(g, 5).value) << "O" << idx;
  }
}

TEST(AlphaBetaSharedTable, TranspositionsReduceNodesOnOthello) {
  // Othello transposes (different move orders reach the same board), so the
  // table must produce hits and expand fewer nodes than plain alpha-beta.
  const othello::OthelloGame g(othello::paper_position(1));
  ConcurrentTranspositionTable table(18);
  const auto tt = search_with_table(g, 6, table);
  const auto plain = alpha_beta_search(g, 6);
  EXPECT_EQ(tt.value, plain.value);
  EXPECT_GT(tt.stats.tt_hits, 0u);
  EXPECT_LT(tt.stats.nodes_generated(), plain.stats.nodes_generated());
}

TEST(AlphaBetaSharedTable, TableReuseAcrossSearchesIsSound) {
  // Search twice with the same table: the second run probes the first run's
  // entries and must return the same value with (much) less work.
  const othello::OthelloGame g(othello::paper_position(2));
  ConcurrentTranspositionTable table(16);
  const auto first = search_with_table(g, 5, table);
  table.new_search();
  const auto second = search_with_table(g, 5, table);
  EXPECT_EQ(first.value, second.value);
  EXPECT_LT(second.stats.nodes_generated(), first.stats.nodes_generated() / 2);
}

TEST(AlphaBetaSharedTable, WindowedSearchKeepsFailHardSemantics) {
  const UniformRandomTree g(3, 4, 9, -50, 50);
  const Value exact = negmax_search(g, 4).value;
  ConcurrentTranspositionTable table(12);
  AlphaBetaSearcher<UniformRandomTree> s(g, 4);
  s.with_shared_table(&table);
  const auto low = s.run(Window{exact + 5, exact + 15});
  EXPECT_LE(low.value, exact + 5);
  const auto high = s.run(Window{exact - 15, exact - 5});
  EXPECT_GE(high.value, exact - 5);
  const auto in = s.run(Window{exact - 5, exact + 5});
  EXPECT_EQ(in.value, exact);
}

}  // namespace
}  // namespace ers
