#pragma once
// 8x8 bitboard primitives for Othello.
//
// Square indexing: bit (rank-1)*8 + file, with file 0 = 'a'.  So a1 is bit
// 0, h1 is bit 7, a8 is bit 56.  Shift helpers mask off the wrap-around
// files so rays never cross the board edge.

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "util/check.hpp"

namespace ers::othello {

using Bitboard = std::uint64_t;

inline constexpr Bitboard kFileA = 0x0101010101010101ULL;
inline constexpr Bitboard kFileH = 0x8080808080808080ULL;
inline constexpr Bitboard kCorners = 0x8100000000000081ULL;  // a1,h1,a8,h8

[[nodiscard]] constexpr Bitboard bit(int square) noexcept {
  return Bitboard{1} << square;
}

[[nodiscard]] constexpr int popcount(Bitboard b) noexcept { return std::popcount(b); }

/// Index of the lowest set bit; b must be nonzero.
[[nodiscard]] constexpr int lsb(Bitboard b) noexcept { return std::countr_zero(b); }

/// Pop the lowest set bit from b and return its index.
[[nodiscard]] constexpr int pop_lsb(Bitboard& b) noexcept {
  const int s = lsb(b);
  b &= b - 1;
  return s;
}

/// All 64 bits if b is nonzero, else 0: a select mask that needs no branch.
[[nodiscard]] constexpr Bitboard full_if_any(Bitboard b) noexcept {
  return Bitboard{0} - Bitboard{b != 0};
}

// Directional single-step shifts (edge-safe).
[[nodiscard]] constexpr Bitboard east(Bitboard b) noexcept { return (b & ~kFileH) << 1; }
[[nodiscard]] constexpr Bitboard west(Bitboard b) noexcept { return (b & ~kFileA) >> 1; }
[[nodiscard]] constexpr Bitboard north(Bitboard b) noexcept { return b << 8; }
[[nodiscard]] constexpr Bitboard south(Bitboard b) noexcept { return b >> 8; }
[[nodiscard]] constexpr Bitboard north_east(Bitboard b) noexcept { return north(east(b)); }
[[nodiscard]] constexpr Bitboard north_west(Bitboard b) noexcept { return north(west(b)); }
[[nodiscard]] constexpr Bitboard south_east(Bitboard b) noexcept { return south(east(b)); }
[[nodiscard]] constexpr Bitboard south_west(Bitboard b) noexcept { return south(west(b)); }

/// Squares adjacent (8-neighborhood) to any square of b: b's east and west
/// neighbours, plus that three-wide row moved one rank up and one down.
[[nodiscard]] constexpr Bitboard neighbors(Bitboard b) noexcept {
  const Bitboard sides = east(b) | west(b);
  const Bitboard row = b | sides;
  return sides | north(row) | south(row);
}

/// Rays run in eight directions.  The first kUpRays step toward higher
/// square indices (east, north-west, north, north-east), so the nearest
/// square of such a ray is its lowest set bit; the other four step toward
/// lower indices, and their nearest square is the highest set bit.
inline constexpr int kUpRays = 4;

using Rays = std::array<Bitboard, 8>;

namespace detail {

consteval std::array<Rays, 64> make_rays() {
  using Step = Bitboard (*)(Bitboard) noexcept;
  constexpr Step kSteps[8] = {east, north_west, north, north_east,
                              west, south_east, south, south_west};
  std::array<Rays, 64> rays{};
  for (int sq = 0; sq < 64; ++sq)
    for (int d = 0; d < 8; ++d)
      for (Bitboard b = kSteps[d](bit(sq)); b != 0; b = kSteps[d](b)) rays[sq][d] |= b;
  return rays;
}

}  // namespace detail

/// kRays[sq][d]: the squares beyond sq in direction d, out to the board edge.
inline constexpr std::array<Rays, 64> kRays = detail::make_rays();

/// Parse "e4"-style square names; returns -1 on malformed input.
[[nodiscard]] constexpr int square_from_name(const char* name) noexcept {
  if (name == nullptr) return -1;
  const char f = name[0];
  const char r = name[1];
  if (f < 'a' || f > 'h' || r < '1' || r > '8' || name[2] != '\0') return -1;
  return (r - '1') * 8 + (f - 'a');
}

[[nodiscard]] inline std::string square_name(int square) {
  ERS_CHECK(square >= 0 && square < 64);
  std::string s(2, '?');
  s[0] = static_cast<char>('a' + square % 8);
  s[1] = static_cast<char>('1' + square / 8);
  return s;
}

}  // namespace ers::othello
