// Paper Figure 1: the tic-tac-toe game tree.  Solves the full game with
// every algorithm in the library and prints the negmax value of each
// opening move (the root value 0 = draw under optimal play).

#include <cstdio>
#include <vector>

#include "core/parallel_er.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"
#include "search/negmax.hpp"
#include "tictactoe/tictactoe.hpp"
#include "util/table.hpp"

namespace {

const char* verdict(ers::Value v) {
  if (v > 0) return "win for X";
  if (v < 0) return "loss for X";
  return "draw";
}

}  // namespace

int main() {
  using namespace ers;
  const TicTacToe game;

  std::printf("Solving tic-tac-toe (paper Figure 1)...\n\n");
  const auto nm = negmax_search(game, 9);
  const auto ab = alpha_beta_search(game, 9);
  const auto er = er_serial_search(game, 9);
  core::EngineConfig cfg;
  cfg.search_depth = 9;
  const auto par = parallel_er_threads(game, cfg, 4);

  TextTable algos({"algorithm", "root value", "verdict", "nodes"});
  algos.add_row({"negmax", std::to_string(nm.value), verdict(nm.value),
                 std::to_string(nm.stats.nodes_generated())});
  algos.add_row({"alpha-beta", std::to_string(ab.value), verdict(ab.value),
                 std::to_string(ab.stats.nodes_generated())});
  algos.add_row({"serial ER", std::to_string(er.value), verdict(er.value),
                 std::to_string(er.stats.nodes_generated())});
  algos.add_row({"parallel ER (4 threads)", std::to_string(par.value),
                 verdict(par.value),
                 std::to_string(par.engine.search.nodes_generated())});
  algos.print();

  // Value of each opening square (X in that square, O to move).
  std::printf("\nOpening move values (from X's point of view):\n\n");
  std::vector<TicTacToe::Position> openings;
  game.generate_children(game.root(), openings);
  Value values[9];
  for (int sq = 0; sq < 9; ++sq) {
    // The child position has O to move; negate to X's perspective.
    class Sub {
     public:
      using Position = TicTacToe::Position;
      explicit Sub(Position p) : root_(p) {}
      Position root() const { return root_; }
      void generate_children(const Position& p, std::vector<Position>& out) const {
        TicTacToe{}.generate_children(p, out);
      }
      Value evaluate(const Position& p) const { return TicTacToe{}.evaluate(p); }

     private:
      Position root_;
    };
    values[sq] = negate(alpha_beta_search(Sub(openings[sq]), 8).value);
  }
  for (int row = 2; row >= 0; --row) {
    for (int col = 0; col < 3; ++col) std::printf("  %4d", values[row * 3 + col]);
    std::printf("\n");
  }
  std::printf("\nEvery opening is a draw under optimal play, as Figure 1 shows.\n");
  return 0;
}
