// Transposition-table search: AlphaBetaSearcher with a shared
// ConcurrentTranspositionTable and the history/killer ordering tables
// attached, and the Othello position keys it probes with.  The table's own
// replacement and packing rules are tested in concurrent_ttable_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <tuple>
#include <vector>

#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/negmax.hpp"
#include "search/ordering.hpp"

namespace ers {
namespace {

template <Game G>
SearchResult search_with_table(const G& g, int depth,
                               ConcurrentTranspositionTable& table) {
  return AlphaBetaSearcher<G>(g, depth).with_shared_table(&table).run();
}

std::uint64_t key_of(const othello::Board& b) {
  return othello::OthelloGame::Position{b}.tt_key();
}

/// The board after playing `moves` (square names, no passes) from the
/// initial position.
othello::Board play(std::initializer_list<const char*> moves) {
  othello::Board b = othello::initial_board();
  for (const char* m : moves) {
    const int sq = othello::square_from_name(m);
    EXPECT_NE(othello::legal_moves(b) & othello::bit(sq), 0u) << m;
    b = othello::apply_move(b, sq);
  }
  return b;
}

TEST(OthelloKey, SideToMoveMatters) {
  const othello::Board b = othello::initial_board();
  EXPECT_NE(key_of(b), key_of(othello::apply_pass(b)));
}

TEST(OthelloKey, TranspositionsShareAKey) {
  // Two move orders, one board: the tables meet a transposition only if
  // its key does not depend on the path that reached it.
  const othello::Board a = play({"d3", "c3", "f5", "f6"});
  const othello::Board b = play({"f5", "f6", "d3", "c3"});
  ASSERT_EQ(a, b);
  EXPECT_EQ(key_of(a), key_of(b));
  EXPECT_NE(key_of(a), key_of(play({"d3", "c3", "f5"})));
}

TEST(OthelloKey, DistinctPositionsDistinctKeys) {
  // Every position within 4 plies of O1, O2 and O3, passes included:
  // transpositions repeat boards, but distinct boards (side to move
  // included) must get distinct keys.
  std::vector<othello::Board> boards;
  for (int idx = 1; idx <= 3; ++idx) {
    const othello::OthelloGame g(othello::paper_position(idx));
    std::vector<othello::OthelloGame::Position> frontier{g.root()}, next;
    for (int d = 0; d <= 4; ++d) {
      for (const auto& p : frontier) {
        boards.push_back(p.board);
        if (d < 4) g.generate_children(p, next);
      }
      frontier.swap(next);
      next.clear();
    }
  }
  std::vector<std::uint64_t> keys;
  for (const auto& b : boards) keys.push_back(key_of(b));
  std::sort(keys.begin(), keys.end());
  std::sort(boards.begin(), boards.end(), [](const auto& x, const auto& y) {
    return std::tie(x.black, x.white, x.to_move) < std::tie(y.black, y.white, y.to_move);
  });
  const auto boards_unique = std::unique(boards.begin(), boards.end()) - boards.begin();
  const auto keys_unique = std::unique(keys.begin(), keys.end()) - keys.begin();
  EXPECT_GT(boards_unique, 50'000);  // of 70,454 positions
  EXPECT_EQ(boards_unique, keys_unique);
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

TEST(AlphaBetaSharedTable, DeepeningWithOrderingTablesStaysExact) {
  // Iterative deepening through one table, as a deepening searcher runs
  // it: the TT move of the previous depth sorts first, then killers, then
  // history credit.  Every depth must keep plain alpha-beta's value and a
  // best move that achieves it, and the ordering tables must change the
  // search (the node total differs from deepening with the TT alone).
  using G = othello::OthelloGame;
  OrderingPolicy paper_sort;
  paper_sort.sort_by_static_value = true;
  paper_sort.max_sort_ply = 6;
  for (int idx = 1; idx <= 3; ++idx) {
    const G g(othello::paper_position(idx));
    auto deepen = [&](bool with_ordering) {
      ConcurrentTranspositionTable table(16);
      OrderingTables ordering;
      std::uint64_t nodes = 0;
      for (int depth = 1; depth <= 6; ++depth) {
        SCOPED_TRACE(::testing::Message()
                     << "O" << idx << " depth=" << depth
                     << " ordering=" << with_ordering);
        if (depth > 1) table.new_search();
        AlphaBetaSearcher<G> s(g, depth, paper_sort);
        s.with_shared_table(&table);
        if (with_ordering) s.with_ordering_tables(&ordering);
        const SearchResult r = s.run();
        nodes += r.stats.nodes_generated();
        EXPECT_EQ(r.value, alpha_beta_search(g, depth, paper_sort).value);
        const auto& move = s.best_root_position();
        EXPECT_TRUE(move.has_value());
        if (move) {
          AlphaBetaSearcher<G> plain(g, depth, paper_sort);
          EXPECT_EQ(negate(plain.run_from(*move, 1).value), r.value);
        }
      }
      return nodes;
    };
    const std::uint64_t ordered = deepen(true);
    const std::uint64_t tt_only = deepen(false);
    EXPECT_NE(ordered, tt_only) << "O" << idx;
  }
}

}  // namespace
}  // namespace ers
