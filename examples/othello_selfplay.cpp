// Othello self-play driven by parallel ER: both sides pick moves with a
// depth-limited parallel search on the shared-memory thread runtime.
//
//   othello_selfplay [--depth 5] [--threads 4] [--plies 60] [--show-boards]

#include <cstdio>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using namespace ers;
using othello::Board;

/// Pick the side-to-move's best move with one parallel-ER search of the
/// whole position, using the engine's best-move report.
int pick_move(const Board& b, int depth, int threads,
              std::uint64_t* nodes_accum) {
  const othello::OthelloGame game(b);
  core::EngineConfig cfg;
  cfg.search_depth = depth;
  cfg.ordering = OrderingPolicy{.sort_by_static_value = true, .max_sort_ply = 6};
  const auto r = parallel_er_threads(game, cfg, threads);
  *nodes_accum += r.engine.search.nodes_generated();
  ERS_CHECK(r.best_move.has_value());
  // Recover the square: the move is the disc added to the mover's set.
  const othello::Bitboard placed =
      r.best_move->board.occupied() & ~b.occupied();
  return othello::lsb(placed);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"depth", "threads", "plies", "show-boards"});
  const int depth = static_cast<int>(args.get_int("depth", 5));
  const int threads = static_cast<int>(args.get_int("threads", 4));
  const int max_plies = static_cast<int>(args.get_int("plies", 60));
  const bool show = args.has("show-boards");

  Board b = othello::initial_board();
  std::uint64_t nodes = 0;
  int ply = 0;
  std::printf("Self-play: %d-ply parallel ER searches on %d threads\n\n", depth,
              threads);
  while (ply < max_plies && !othello::is_game_over(b)) {
    if (othello::must_pass(b)) {
      std::printf("%2d. %s passes\n", ply + 1,
                  b.to_move == othello::Player::Black ? "BLACK" : "WHITE");
      b = othello::apply_pass(b);
      ++ply;
      continue;
    }
    const int sq = pick_move(b, depth, threads, &nodes);
    std::printf("%2d. %s plays %s\n", ply + 1,
                b.to_move == othello::Player::Black ? "BLACK" : "WHITE",
                othello::square_name(sq).c_str());
    b = othello::apply_move(b, sq);
    ++ply;
    if (show) std::printf("%s\n", othello::to_string(b).c_str());
  }

  const int black = othello::popcount(b.black);
  const int white = othello::popcount(b.white);
  std::printf("\nFinal position after %d plies:\n%s\n", ply,
              othello::to_string(b).c_str());
  std::printf("Score: BLACK %d - WHITE %d  (%s)\n", black, white,
              black == white ? "draw" : (black > white ? "BLACK wins" : "WHITE wins"));
  std::printf("Total nodes searched: %llu\n",
              static_cast<unsigned long long>(nodes));
  return 0;
}
