#pragma once
// Adapter exposing the Othello rules engine through the Game concept so all
// search algorithms in this library can run on it unchanged.

#include <vector>

#include "gametree/game.hpp"
#include "othello/board.hpp"
#include "othello/eval.hpp"
#include "util/rng.hpp"
#include "util/value.hpp"

namespace ers::othello {

class OthelloGame {
 public:
  struct Position {
    Board board;

    /// Key for transposition and ordering tables (HashedGame), mixed from
    /// the two bitboards and the side to move when a table asks for it.
    /// A pure function of the board, so every move order that reaches a
    /// position gives it the same key.
    [[nodiscard]] std::uint64_t tt_key() const noexcept {
      const auto side = static_cast<std::uint64_t>(board.to_move);
      return hash_combine(splitmix64(board.black) ^ side, board.white);
    }

    friend bool operator==(const Position&, const Position&) = default;
  };

  OthelloGame() : root_{initial_board()}, weights_(default_weights()) {}
  explicit OthelloGame(Board root, EvalWeights weights = default_weights())
      : root_{root}, weights_(weights) {}

  [[nodiscard]] Position root() const noexcept { return root_; }

  /// One child per legal disc placement; a forced pass produces a single
  /// child; a finished game produces none (terminal).
  void generate_children(const Position& p, std::vector<Position>& out) const {
    Bitboard moves = legal_moves(p.board);
    if (moves == 0) {
      // The mover has no move, so the game goes on only if the opponent has.
      if (legal_moves(p.board.opp(), p.board.own()) != 0)
        out.push_back(Position{apply_pass(p.board)});
      return;
    }
    while (moves != 0) {
      const int sq = pop_lsb(moves);
      out.push_back(Position{apply_move(p.board, sq)});
    }
  }

  [[nodiscard]] Value evaluate(const Position& p) const {
    return evaluate_board(p.board, weights_);
  }

 private:
  Position root_;
  EvalWeights weights_;
};

static_assert(Game<OthelloGame>);

}  // namespace ers::othello
