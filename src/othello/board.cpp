#include "othello/board.hpp"

#include <sstream>

namespace ers::othello {

std::uint64_t perft(const Board& b, int depth) {
  if (depth == 0) return 1;
  Bitboard moves = legal_moves(b);
  if (moves == 0) {
    if (is_game_over(b)) return 1;
    return perft(apply_pass(b), depth - 1);
  }
  std::uint64_t total = 0;
  while (moves != 0) {
    const int sq = pop_lsb(moves);
    total += perft(apply_move(b, sq), depth - 1);
  }
  return total;
}

std::string to_string(const Board& b, bool mark_moves) {
  const Bitboard moves = mark_moves ? legal_moves(b) : 0;
  std::ostringstream os;
  for (int rank = 8; rank >= 1; --rank) {
    os << rank << ' ';
    for (int file = 0; file < 8; ++file) {
      const Bitboard sq = bit((rank - 1) * 8 + file);
      char c = '.';
      if (b.black & sq) c = 'X';
      else if (b.white & sq) c = 'O';
      else if (moves & sq) c = '*';
      os << c << ' ';
    }
    os << '\n';
  }
  os << "  a b c d e f g h\n";
  os << (b.to_move == Player::Black ? "BLACK" : "WHITE") << " to move\n";
  return os.str();
}

Board board_from_ascii(const std::string& art, Player to_move) {
  Board b;
  b.black = b.white = 0;
  b.to_move = to_move;
  int rank = 8;
  std::istringstream is(art);
  std::string line;
  while (std::getline(is, line) && rank >= 1) {
    // Board rows start with the rank digit; skip anything else.
    if (line.empty() || line[0] != static_cast<char>('0' + rank)) continue;
    int file = 0;
    for (std::size_t i = 1; i < line.size() && file < 8; ++i) {
      const char c = line[i];
      if (c == ' ') continue;
      const Bitboard sq = bit((rank - 1) * 8 + file);
      if (c == 'X') b.black |= sq;
      else if (c == 'O') b.white |= sq;
      else ERS_CHECK(c == '.' || c == '*');
      ++file;
    }
    ERS_CHECK(file == 8);
    --rank;
  }
  ERS_CHECK(rank == 0);
  ERS_CHECK((b.black & b.white) == 0);
  return b;
}

}  // namespace ers::othello
