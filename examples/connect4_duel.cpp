// Connect Four duel: parallel ER (first player) against plain serial
// alpha-beta (second player), both depth-limited, demonstrating the engine
// on a third game.
//
//   connect4_duel [--depth 8] [--threads 4]

#include <cstdio>
#include <vector>

#include "connect4/connect4.hpp"
#include "core/parallel_er.hpp"
#include "search/alpha_beta.hpp"
#include "util/cli.hpp"

namespace {

using namespace ers;
using connect4::Connect4;

struct Rooted {
  using Position = Connect4::Position;
  Position start;
  Position root() const { return start; }
  void generate_children(const Position& p, std::vector<Position>& out) const {
    Connect4{}.generate_children(p, out);
  }
  Value evaluate(const Position& p) const { return Connect4{}.evaluate(p); }
};

void print_board(const Connect4::Position& p, bool x_to_move) {
  const connect4::Bitboard xs = x_to_move ? p.mine : p.theirs;
  const connect4::Bitboard os = x_to_move ? p.theirs : p.mine;
  for (int r = connect4::kRows - 1; r >= 0; --r) {
    for (int c = 0; c < connect4::kColumns; ++c) {
      const auto bit = connect4::Bitboard{1} << (c * 7 + r);
      std::printf("%c ", (xs & bit) ? 'X' : (os & bit) ? 'O' : '.');
    }
    std::printf("\n");
  }
  std::printf("0 1 2 3 4 5 6\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"depth", "threads"});
  const int depth = static_cast<int>(args.get_int("depth", 8));
  const int threads = static_cast<int>(args.get_int("threads", 4));

  const Connect4 game;
  Connect4::Position p = game.root();
  bool x_to_move = true;
  int ply = 0;
  std::printf("X: parallel ER (%d threads, depth %d) — O: serial alpha-beta\n\n",
              threads, depth);
  while (ply < 42) {
    std::vector<Connect4::Position> kids;
    game.generate_children(p, kids);
    if (kids.empty()) break;
    // One search of the whole position; play its reported best move.
    const Rooted rooted{p};
    Connect4::Position next;
    if (x_to_move) {
      core::EngineConfig cfg;
      cfg.search_depth = depth;
      const auto r = parallel_er_threads(rooted, cfg, threads);
      next = r.best_move.value_or(kids.front());
    } else {
      AlphaBetaSearcher<Rooted> searcher(rooted, depth);
      (void)searcher.run();
      next = searcher.best_root_position().value_or(kids.front());
    }
    std::printf("%2d. %c plays column %d\n", ply + 1, x_to_move ? 'X' : 'O',
                Connect4::move_column(p, next));
    p = next;
    x_to_move = !x_to_move;
    ++ply;
  }
  print_board(p, x_to_move);
  if (connect4::has_four(p.theirs))
    std::printf("%c wins after %d plies.\n", x_to_move ? 'O' : 'X', ply);
  else
    std::printf("Draw after %d plies.\n", ply);
  return 0;
}
