#pragma once
// The Game concept: the minimal interface a two-player zero-sum game must
// expose for the search algorithms in this library.
//
// Conventions (negmax, as in the paper §2):
//   * evaluate(p) returns the value of position p from the point of view of
//     the player to move at p; the value of a position for one player is the
//     negative of its value for the other.
//   * generate_children(p, out) appends the positions reachable in one move.
//     A position with no children is terminal (win/loss/draw or a game rule
//     such as "board full").  The *search* additionally truncates at a depth
//     limit and applies the static evaluator there.
//   * All games must be deterministic and positions cheap to copy: the
//     parallel engines store positions by value in their node records.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/value.hpp"

namespace ers {

template <typename G>
concept Game = requires(const G& g, const typename G::Position& p,
                        std::vector<typename G::Position>& out) {
  typename G::Position;
  requires std::copyable<typename G::Position>;
  { g.root() } -> std::convertible_to<typename G::Position>;
  { g.generate_children(p, out) } -> std::same_as<void>;
  { g.evaluate(p) } -> std::convertible_to<Value>;
};

/// Capacity the searchers reserve up front for their per-thread
/// child-position scratch buffers.  A reserve hint only, never a limit:
/// generate_children may grow a buffer past it.
inline constexpr std::size_t kChildReserve = 32;

/// Games whose positions yield a cheap 64-bit transposition key (a field
/// read for random trees, a few multiplies for Othello), which searches ask
/// for only when a table is attached.  Positions that compare equal must
/// have equal keys; distinct positions collide with the usual 2^-64
/// transposition-table risk.  Searches probe/store shared transposition
/// tables only for games satisfying this concept.
template <typename G>
concept HashedGame = Game<G> && requires(const typename G::Position& p) {
  { p.tt_key() } -> std::convertible_to<std::uint64_t>;
};

/// Work counters shared by every search algorithm.  "Nodes generated" in the
/// paper's Figures 12/13 corresponds to nodes_generated() here.
struct SearchStats {
  std::uint64_t interior_expanded = 0;  ///< interior nodes whose children were generated
  std::uint64_t leaves_evaluated = 0;   ///< static evaluations at the search horizon
  std::uint64_t child_sorts = 0;        ///< child-list sorts performed (move ordering)
  std::uint64_t sort_evals = 0;         ///< static evaluations done *only* for ordering
  // Transposition-table traffic.  Kept here (per search, so thread-local by
  // construction) rather than on the shared table: callers sum them,
  // keeping the concurrent table free of shared counters on the hot path.
  std::uint64_t tt_probes = 0;  ///< table lookups issued
  std::uint64_t tt_hits = 0;    ///< lookups that validated with sufficient depth
  std::uint64_t tt_stores = 0;  ///< entries written
  // ABDADA two-phase move iteration (search/abdada.hpp): younger siblings
  // skipped in phase one because another worker was inside them, and the
  // deferred moves searched in phase two (a beta cutoff in phase one
  // retires deferrals without revisits, so deferred >= revisited).
  std::uint64_t moves_deferred = 0;   ///< phase-one exclusivity skips
  std::uint64_t moves_revisited = 0;  ///< phase-two deferred-move searches

  [[nodiscard]] std::uint64_t nodes_generated() const noexcept {
    return interior_expanded + leaves_evaluated;
  }
  /// Total static-evaluator applications (horizon + ordering).
  [[nodiscard]] std::uint64_t total_static_evals() const noexcept {
    return leaves_evaluated + sort_evals;
  }

  /// Fraction of probes answered from the table; 0 when no table was used.
  [[nodiscard]] double tt_hit_rate() const noexcept {
    return tt_probes > 0
               ? static_cast<double>(tt_hits) / static_cast<double>(tt_probes)
               : 0.0;
  }

  SearchStats& operator+=(const SearchStats& o) noexcept {
    interior_expanded += o.interior_expanded;
    leaves_evaluated += o.leaves_evaluated;
    child_sorts += o.child_sorts;
    sort_evals += o.sort_evals;
    tt_probes += o.tt_probes;
    tt_hits += o.tt_hits;
    tt_stores += o.tt_stores;
    moves_deferred += o.moves_deferred;
    moves_revisited += o.moves_revisited;
    return *this;
  }
};

/// Result of a (serial or parallel) search.
struct SearchResult {
  Value value = 0;
  SearchStats stats;
};

}  // namespace ers
