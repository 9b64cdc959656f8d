#pragma once
// Static evaluation for Othello, in the style of Rosenbloom's IAGO features
// (positional square values, mobility, potential mobility, corner control,
// stage-dependent disc count).  All integer, deterministic, and antisymmetric:
// evaluate(b) == -evaluate(b with side to move swapped).

#include <array>
#include <cstdint>

#include "othello/board.hpp"
#include "util/value.hpp"

namespace ers::othello {

/// Classic positional weights (corners dominate; X- and C-squares are
/// poisoned while the adjacent corner is empty).
inline constexpr std::array<int, 64> kSquareWeights = {
    100, -20, 10,  5,   5,  10, -20, 100,   // rank 1
    -20, -50, -2,  -2,  -2, -2, -50, -20,   // rank 2
    10,  -2,  -1,  -1,  -1, -1, -2,  10,    // rank 3
    5,   -2,  -1,  0,   0,  -1, -2,  5,     // rank 4
    5,   -2,  -1,  0,   0,  -1, -2,  5,     // rank 5
    10,  -2,  -1,  -1,  -1, -1, -2,  10,    // rank 6
    -20, -50, -2,  -2,  -2, -2, -50, -20,   // rank 7
    100, -20, 10,  5,   5,  10, -20, 100,   // rank 8
};

struct EvalWeights {
  int positional = 10;
  int mobility = 80;
  int potential_mobility = 20;
  int corners = 300;
  int discs_early = -4;   ///< while < 44 discs on board: fewer discs is better
  int discs_late = 12;    ///< endgame: discs decide
  int stage_boundary = 44;
  Value terminal_scale = 10'000;  ///< exact outcomes dwarf heuristics
};

[[nodiscard]] inline const EvalWeights& default_weights() noexcept {
  static const EvalWeights w{};
  return w;
}

namespace detail {

/// [rank][pattern]: the sum of kSquareWeights over the squares of `rank`
/// (0-based) whose file bits are set in the 8-bit `pattern`.
consteval std::array<std::array<std::int16_t, 256>, 8> make_rank_weights() {
  std::array<std::array<std::int16_t, 256>, 8> table{};
  for (int rank = 0; rank < 8; ++rank)
    for (int pattern = 0; pattern < 256; ++pattern) {
      int s = 0;
      for (int file = 0; file < 8; ++file)
        if (pattern & (1 << file)) s += kSquareWeights[rank * 8 + file];
      table[rank][pattern] = static_cast<std::int16_t>(s);
    }
  return table;
}

}  // namespace detail

inline constexpr std::array<std::array<std::int16_t, 256>, 8> kRankWeights =
    detail::make_rank_weights();

/// Sum of square weights over the discs in `discs`, one table lookup per rank.
[[nodiscard]] constexpr int positional_score(Bitboard discs) noexcept {
  int s = 0;
  for (int rank = 0; rank < 8; ++rank)
    s += kRankWeights[rank][(discs >> (8 * rank)) & 0xff];
  return s;
}

/// Empty squares adjacent to `discs` — the owner's *potential* liabilities
/// (frontier), so the difference enters negated for own discs.
[[nodiscard]] constexpr int frontier_count(Bitboard discs, Bitboard empty) noexcept {
  return popcount(neighbors(discs) & empty);
}

/// Heuristic value of `b` from the side-to-move's perspective.  If the game
/// is over, returns the exact (scaled) disc differential instead.
[[nodiscard]] Value evaluate_board(const Board& b,
                                   const EvalWeights& w = default_weights());

}  // namespace ers::othello
