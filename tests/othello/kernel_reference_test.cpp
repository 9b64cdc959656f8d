// The Othello leaf kernels against a naive reference.  The reference keeps
// the board as an 8x8 array with an off-board border and walks files and
// ranks one square at a time, with no shifts, masks or tables; the
// library's table-driven kernels must agree with it bit for bit.  Boards
// come from two sources: a million seeded random boards (either side to
// move; full, nearly full and finished boards included), and every
// position of seeded self-play games.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "othello/eval.hpp"
#include "othello/game.hpp"
#include "util/rng.hpp"

namespace ers::othello {
namespace {

enum class Cell : std::uint8_t { kEmpty, kBlack, kWhite, kOff };

/// A mailbox board: cell[rank + 1][file + 1] for rank and file 0..7 (rank 0
/// = rank 1, file 0 = file a), ringed by kOff cells so a walk stops at the
/// edge without a bounds check.
struct Grid {
  std::array<std::array<Cell, 10>, 10> cell;

  Cell& at(int file, int rank) { return cell[rank + 1][file + 1]; }
  Cell at(int file, int rank) const { return cell[rank + 1][file + 1]; }
};

constexpr int kSteps[8][2] = {{1, 0},  {-1, 0}, {0, 1},  {0, -1},
                              {1, 1},  {1, -1}, {-1, 1}, {-1, -1}};  // {file, rank}

Cell cell_of(Player p) { return p == Player::Black ? Cell::kBlack : Cell::kWhite; }

Grid grid_of(const Board& b) {
  Grid g;
  for (auto& row : g.cell) row.fill(Cell::kOff);
  for (int rank = 0; rank < 8; ++rank)
    for (int file = 0; file < 8; ++file) {
      const int sq = rank * 8 + file;
      g.at(file, rank) = ((b.black >> sq) & 1)   ? Cell::kBlack
                         : ((b.white >> sq) & 1) ? Cell::kWhite
                                                 : Cell::kEmpty;
    }
  return g;
}

Board board_of(const Grid& g, Player to_move) {
  Board b;
  for (int rank = 0; rank < 8; ++rank)
    for (int file = 0; file < 8; ++file) {
      if (g.at(file, rank) == Cell::kBlack) b.black |= bit(rank * 8 + file);
      if (g.at(file, rank) == Cell::kWhite) b.white |= bit(rank * 8 + file);
    }
  b.to_move = to_move;
  return b;
}

/// Discs `me` flips by playing on (file, rank): walk each direction over
/// opponent discs and keep the run if an own disc ends it.
Bitboard ref_flips(const Grid& g, Cell me, int file, int rank) {
  if (g.at(file, rank) != Cell::kEmpty) return 0;
  const Cell them = me == Cell::kBlack ? Cell::kWhite : Cell::kBlack;
  Bitboard flips = 0;
  for (const auto& step : kSteps) {
    Bitboard run = 0;
    int f = file + step[0];
    int r = rank + step[1];
    while (g.at(f, r) == them) {
      run |= bit(r * 8 + f);
      f += step[0];
      r += step[1];
    }
    if (g.at(f, r) == me) flips |= run;
  }
  return flips;
}

/// Squares next to a `c` square, in any of the eight directions.
Bitboard ref_neighbors(const Grid& g, Cell c) {
  Bitboard out = 0;
  for (int rank = 0; rank < 8; ++rank)
    for (int file = 0; file < 8; ++file) {
      if (g.at(file, rank) != c) continue;
      for (const auto& step : kSteps)
        if (g.at(file + step[0], rank + step[1]) != Cell::kOff)
          out |= bit((rank + step[1]) * 8 + file + step[0]);
    }
  return out;
}

/// Everything the kernels compute about one side, square by square.
struct RefSide {
  std::array<Bitboard, 64> flips{};  ///< per square; 0 where the move is illegal
  Bitboard moves = 0;
  Bitboard touched = 0;  ///< squares next to one of this side's discs
  int mobility = 0;
  int discs = 0;
  int positional = 0;
  int frontier = 0;  ///< how many empty squares `touched` holds
  int corners = 0;
};

RefSide ref_side(const Grid& g, Cell me) {
  RefSide s;
  s.touched = ref_neighbors(g, me);
  for (int rank = 0; rank < 8; ++rank)
    for (int file = 0; file < 8; ++file) {
      const int sq = rank * 8 + file;
      if (g.at(file, rank) == me) {
        ++s.discs;
        s.positional += kSquareWeights[sq];
        if ((rank == 0 || rank == 7) && (file == 0 || file == 7)) ++s.corners;
      } else if (g.at(file, rank) == Cell::kEmpty) {
        if ((s.touched >> sq) & 1) ++s.frontier;
        s.flips[sq] = ref_flips(g, me, file, rank);
        if (s.flips[sq] != 0) {
          s.moves |= bit(sq);
          ++s.mobility;
        }
      }
    }
  return s;
}

Value ref_evaluate(const RefSide& own, const RefSide& opp, const EvalWeights& w) {
  if (own.mobility == 0 && opp.mobility == 0)
    return static_cast<Value>(own.discs - opp.discs) * w.terminal_scale;
  const int stage_weight =
      own.discs + opp.discs < w.stage_boundary ? w.discs_early : w.discs_late;
  const long long v =
      static_cast<long long>(w.positional) * (own.positional - opp.positional) +
      static_cast<long long>(w.mobility) * (own.mobility - opp.mobility) +
      static_cast<long long>(w.potential_mobility) * (opp.frontier - own.frontier) +
      static_cast<long long>(w.corners) * (own.corners - opp.corners) +
      static_cast<long long>(stage_weight) * (own.discs - opp.discs);
  return static_cast<Value>(v);
}

/// The position after `side` plays `sq`, flipping `flips`, built on the grid.
Board ref_play(Grid g, Player side, int sq, Bitboard flips) {
  const Cell me = cell_of(side);
  for (int rank = 0; rank < 8; ++rank)
    for (int file = 0; file < 8; ++file)
      if ((flips >> (rank * 8 + file)) & 1) g.at(file, rank) = me;
  g.at(sq % 8, sq / 8) = me;
  return board_of(g, opponent_of(side));
}

struct Outcome {
  bool game_over = false;
  std::string mismatch;  ///< first disagreement with the reference; empty if none
};

/// Compares every kernel with the reference on `b`, for both sides to move.
Outcome compare_with_reference(const Board& b) {
  const Grid g = grid_of(b);
  const EvalWeights& w = default_weights();
  const std::array<RefSide, 2> ref = {ref_side(g, Cell::kBlack), ref_side(g, Cell::kWhite)};
  const bool game_over = ref[0].mobility == 0 && ref[1].mobility == 0;
  const auto fail = [&](Player side, const std::string& what) {
    return Outcome{game_over, (side == Player::Black ? "black " : "white ") + what};
  };
  for (const Player side : {Player::Black, Player::White}) {
    const int me = side == Player::Black ? 0 : 1;
    const Bitboard own = side == Player::Black ? b.black : b.white;
    const Bitboard opp = side == Player::Black ? b.white : b.black;
    for (int sq = 0; sq < 64; ++sq)
      if (flips_for(own, opp, sq) != ref[me].flips[sq])
        return fail(side, "flips_for " + square_name(sq));
    if (legal_moves(own, opp) != ref[me].moves) return fail(side, "legal_moves");
    if (neighbors(own) != ref[me].touched) return fail(side, "neighbors");
    if (positional_score(own) != ref[me].positional) return fail(side, "positional_score");
    Board as_side = b;
    as_side.to_move = side;
    if (evaluate_board(as_side, w) != ref_evaluate(ref[me], ref[1 - me], w))
      return fail(side, "evaluate_board");
  }
  const RefSide& mover = ref[b.to_move == Player::Black ? 0 : 1];
  for (Bitboard moves = legal_moves(b); moves != 0;) {
    const int sq = pop_lsb(moves);
    const Board next = apply_move(b, sq);
    if (next != ref_play(g, b.to_move, sq, mover.flips[sq]))
      return fail(b.to_move, "apply_move " + square_name(sq));
  }
  return Outcome{game_over, ""};
}

/// A random board of one of four kinds, chosen by `kind`: full, nearly full
/// (one to four empties), a single color, or any density and color mix.
Board random_board(Xoshiro256StarStar& rng, int kind) {
  std::uint64_t empty_pct = rng.below(101);
  std::uint64_t black_pct = rng.below(101);
  if (kind == 0) empty_pct = 0;
  if (kind == 2) black_pct = rng.below(2) * 100;
  Board b;
  for (int sq = 0; sq < 64; ++sq) {
    if (kind != 1 && rng.below(100) < empty_pct) continue;
    (rng.below(100) < black_pct ? b.black : b.white) |= bit(sq);
  }
  if (kind == 1) {  // clear one to four squares of the full board
    for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
      const Bitboard cleared = bit(static_cast<int>(rng.below(64)));
      b.black &= ~cleared;
      b.white &= ~cleared;
    }
  }
  b.to_move = rng.below(2) == 0 ? Player::Black : Player::White;
  return b;
}

/// The random boards come in four chunks (the test's parameter), each with
/// its own seed, so a parallel test run spreads them over the cores.
class RandomBoards : public ::testing::TestWithParam<int> {};

TEST_P(RandomBoards, MatchNaiveReference) {
  constexpr int kBoards = 250'000;
  Xoshiro256StarStar rng(0x0e11'0b0a'4dULL + static_cast<std::uint64_t>(GetParam()));
  int game_over = 0;
  int full = 0;
  for (int i = 0; i < kBoards; ++i) {
    const Board b = random_board(rng, i % 8 < 3 ? i % 8 : 3);
    const Outcome r = compare_with_reference(b);
    ASSERT_TRUE(r.mismatch.empty())
        << "board " << i << ": " << r.mismatch << "\n" << to_string(b);
    game_over += r.game_over ? 1 : 0;
    full += b.empty() == 0 ? 1 : 0;
  }
  // Full boards are an eighth of the boards, single-color ones another
  // eighth, and every one of both is a finished game.
  EXPECT_GT(full, kBoards / 8);
  EXPECT_GT(game_over, kBoards / 4);
  EXPECT_LT(game_over, kBoards / 2);
}

// Four chunks of 250,000: a million random boards in all.
INSTANTIATE_TEST_SUITE_P(KernelReference, RandomBoards, ::testing::Range(0, 4));

/// The children OthelloGame should generate for `b`, built from the
/// reference: one per legal square in ascending order, else a single pass
/// if the opponent can move, else none.
std::vector<Board> ref_children(const Board& b) {
  const Grid g = grid_of(b);
  const RefSide mover = ref_side(g, cell_of(b.to_move));
  std::vector<Board> kids;
  for (int sq = 0; sq < 64; ++sq)
    if (mover.flips[sq] != 0) kids.push_back(ref_play(g, b.to_move, sq, mover.flips[sq]));
  if (kids.empty() && ref_side(g, cell_of(opponent_of(b.to_move))).mobility > 0) {
    Board pass = b;
    pass.to_move = opponent_of(b.to_move);
    kids.push_back(pass);
  }
  return kids;
}

TEST(KernelReference, SelfPlayPositionsMatchNaiveReference) {
  constexpr int kGames = 1'000;
  Xoshiro256StarStar rng(0x5e1f'91a7ULL);
  const OthelloGame game;
  std::vector<OthelloGame::Position> kids;
  int positions = 0;
  int passes = 0;
  for (int i = 0; i < kGames; ++i) {
    OthelloGame::Position p = game.root();
    for (;;) {
      ++positions;
      const Outcome r = compare_with_reference(p.board);
      ASSERT_TRUE(r.mismatch.empty())
          << "game " << i << ": " << r.mismatch << "\n" << to_string(p.board);

      kids.clear();
      game.generate_children(p, kids);
      const std::vector<Board> expected = ref_children(p.board);
      ASSERT_EQ(kids.size(), expected.size()) << to_string(p.board);
      for (std::size_t k = 0; k < kids.size(); ++k)
        ASSERT_EQ(kids[k].board, expected[k]) << "child " << k << "\n" << to_string(p.board);
      if (kids.empty()) {
        ASSERT_TRUE(r.game_over) << to_string(p.board);
        break;
      }
      if (legal_moves(p.board) == 0) ++passes;
      p = kids[rng.below(kids.size())];
    }
  }
  EXPECT_GT(positions, kGames * 55);
  EXPECT_GT(passes, 0);
}

}  // namespace
}  // namespace ers::othello
