#pragma once
// Zobrist key material for Othello: 64 random keys per color, their
// per-square XOR (the color-swap key) and a side-to-move key, all derived
// deterministically from splitmix64 at compile time.  Split out from
// zobrist.hpp so board.hpp can maintain the hash incrementally during move
// application without a circular include.

#include <array>
#include <cstdint>

#include "util/rng.hpp"

namespace ers::othello {

namespace detail {

consteval std::array<std::uint64_t, 64> make_keys(std::uint64_t salt) {
  std::array<std::uint64_t, 64> keys{};
  for (int i = 0; i < 64; ++i)
    keys[i] = splitmix64(salt * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i));
  return keys;
}

}  // namespace detail

inline constexpr std::array<std::uint64_t, 64> kZobristBlack = detail::make_keys(1);
inline constexpr std::array<std::uint64_t, 64> kZobristWhite = detail::make_keys(2);
/// kZobristBlack[sq] ^ kZobristWhite[sq]: the hash change when the disc on
/// sq changes color.
inline constexpr std::array<std::uint64_t, 64> kZobristFlip = [] {
  std::array<std::uint64_t, 64> keys{};
  for (int i = 0; i < 64; ++i) keys[i] = kZobristBlack[i] ^ kZobristWhite[i];
  return keys;
}();
inline constexpr std::uint64_t kZobristWhiteToMove = splitmix64(0xabcdef0123456789ULL);

}  // namespace ers::othello
