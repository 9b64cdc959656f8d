#pragma once
// Othello rules: board representation, legal-move generation, disc flipping,
// pass handling and game-over detection.  This module replaces the Othello
// program by Steven Scott used in the paper (see DESIGN.md §1).

#include <cstdint>
#include <string>
#include <vector>

#include "othello/bitboard.hpp"
#include "util/check.hpp"

namespace ers::othello {

enum class Player : std::uint8_t { Black = 0, White = 1 };

[[nodiscard]] constexpr Player opponent_of(Player p) noexcept {
  return p == Player::Black ? Player::White : Player::Black;
}

/// Full game state.  `black`/`white` are disjoint disc sets; `to_move` is the
/// side whose turn it is (a side with no legal move must pass; the game ends
/// when neither side can move).
struct Board {
  Bitboard black = 0;
  Bitboard white = 0;
  Player to_move = Player::Black;

  [[nodiscard]] constexpr Bitboard own() const noexcept {
    return to_move == Player::Black ? black : white;
  }
  [[nodiscard]] constexpr Bitboard opp() const noexcept {
    return to_move == Player::Black ? white : black;
  }
  [[nodiscard]] constexpr Bitboard occupied() const noexcept { return black | white; }
  [[nodiscard]] constexpr Bitboard empty() const noexcept { return ~occupied(); }

  friend constexpr bool operator==(const Board&, const Board&) noexcept = default;
};

/// The standard initial position (black to move).
[[nodiscard]] constexpr Board initial_board() noexcept {
  Board b;
  b.white = bit(square_from_name("d4")) | bit(square_from_name("e5"));
  b.black = bit(square_from_name("e4")) | bit(square_from_name("d5"));
  b.to_move = Player::Black;
  return b;
}

namespace detail {

/// Kogge-Stone occluded fill: `gen` spread through `pro` by up to seven
/// steps of `shift` bits toward higher square indices, in three doubling
/// rounds (runs of 1, 2, then 4 steps).
[[nodiscard]] constexpr Bitboard fill_up(Bitboard gen, Bitboard pro, int shift) noexcept {
  gen |= pro & (gen << shift);
  pro &= pro << shift;
  gen |= pro & (gen << 2 * shift);
  pro &= pro << 2 * shift;
  return gen | (pro & (gen << 4 * shift));
}

/// fill_up toward lower square indices.
[[nodiscard]] constexpr Bitboard fill_down(Bitboard gen, Bitboard pro, int shift) noexcept {
  gen |= pro & (gen >> shift);
  pro &= pro >> shift;
  gen |= pro & (gen >> 2 * shift);
  pro &= pro >> 2 * shift;
  return gen | (pro & (gen >> 4 * shift));
}

/// Squares one step past a run of `run` discs that starts next to an `own`
/// disc, both ways along the line whose squares are `shift` bits apart.
[[nodiscard]] constexpr Bitboard past_runs(Bitboard own, Bitboard run, int shift) noexcept {
  return ((fill_up(own, run, shift) & run) << shift) |
         ((fill_down(own, run, shift) & run) >> shift);
}

}  // namespace detail

/// Bitboard of squares where `own` may legally place a disc against `opp`:
/// the empty squares just past a run of opponent discs that an own disc
/// starts, along the four lines: shift 1 walks a rank, 8 a file, 7 and 9
/// the diagonals.
[[nodiscard]] constexpr Bitboard legal_moves(Bitboard own, Bitboard opp) noexcept {
  // An opponent disc on the a- or h-file cannot sit inside a run along a
  // line that changes file; leaving those discs out also stops the fills
  // from wrapping from one rank's h-file to the next rank's a-file.
  const Bitboard inner = opp & ~(kFileA | kFileH);
  const Bitboard past = detail::past_runs(own, inner, 1) | detail::past_runs(own, opp, 8) |
                        detail::past_runs(own, inner, 7) | detail::past_runs(own, inner, 9);
  return past & ~(own | opp);
}

[[nodiscard]] constexpr Bitboard legal_moves(const Board& b) noexcept {
  return legal_moves(b.own(), b.opp());
}

/// Discs flipped if `own` plays on `square` (0 if the square is occupied or
/// the move is illegal).  On each ray from `square`, the nearest square
/// that holds no opponent disc ends the run, and the run flips if that
/// square holds an own disc.  Every square costs the same eight ray
/// lookups; no loop walks a run.
[[nodiscard]] constexpr Bitboard flips_for(Bitboard own, Bitboard opp,
                                           int square) noexcept {
  const Rays& rays = kRays[square];
  Bitboard flips = 0;
  for (int d = 0; d < kUpRays; ++d) {
    const Bitboard ends = rays[d] & ~opp;
    const Bitboard end = ends & (0 - ends);  // lowest set bit
    flips |= rays[d] & (end - 1) & full_if_any(end & own);
  }
  for (int d = kUpRays; d < 8; ++d) {
    const Bitboard ends = rays[d] & ~opp;
    // Highest set bit.  The `| 1` keeps countl_zero's operand nonzero, so
    // the shift stays below 64; `& ends` drops that stand-in bit again.
    const Bitboard end = (bit(63) >> std::countl_zero(ends | 1)) & ends;
    flips |= rays[d] & (0 - (end << 1)) & full_if_any(end & own);
  }
  return flips & full_if_any(bit(square) & ~(own | opp));
}

/// Apply a disc placement for the side to move; the move must be legal.
[[nodiscard]] constexpr Board apply_move(const Board& b, int square) noexcept {
  const Bitboard flips = flips_for(b.own(), b.opp(), square);
  Board next = b;
  const Bitboard placed = bit(square);
  if (b.to_move == Player::Black) {
    next.black = b.black | placed | flips;
    next.white = b.white & ~flips;
  } else {
    next.white = b.white | placed | flips;
    next.black = b.black & ~flips;
  }
  next.to_move = opponent_of(b.to_move);
  return next;
}

/// Apply a pass (only legal when the side to move has no moves).
[[nodiscard]] constexpr Board apply_pass(const Board& b) noexcept {
  Board next = b;
  next.to_move = opponent_of(b.to_move);
  return next;
}

[[nodiscard]] constexpr bool must_pass(const Board& b) noexcept {
  return legal_moves(b) == 0;
}

[[nodiscard]] constexpr bool is_game_over(const Board& b) noexcept {
  return legal_moves(b.own(), b.opp()) == 0 && legal_moves(b.opp(), b.own()) == 0;
}

/// Disc count difference from the side-to-move's perspective.
[[nodiscard]] constexpr int disc_difference(const Board& b) noexcept {
  return popcount(b.own()) - popcount(b.opp());
}

/// Leaf count of the game tree to `depth` plies (passes count as one ply, as
/// in standard Othello perft).  Used to validate move generation.
[[nodiscard]] std::uint64_t perft(const Board& b, int depth);

/// ASCII rendering (rank 8 at the top; 'X' black, 'O' white, '.' empty,
/// '*' marks legal moves for the side to move).
[[nodiscard]] std::string to_string(const Board& b, bool mark_moves = false);

/// Parse the rendering produced by to_string (ignoring move marks); the
/// inverse is used by tests.  `to_move` must be supplied.
[[nodiscard]] Board board_from_ascii(const std::string& art, Player to_move);

}  // namespace ers::othello
