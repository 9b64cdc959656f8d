#pragma once
// The optional shared tables serial alpha-beta consults and trains: the
// lock-free transposition table (DESIGN.md §8), probed and stored at every
// node, and the history/killer tables that refine child sorts (§17).
// Every member is a no-op without a table attached, and for games that are
// not HashedGame.

#include <cstdint>
#include <vector>

#include "gametree/game.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/ordering.hpp"
#include "util/value.hpp"

namespace ers {

template <Game G>
struct TableHooks {
  using Position = typename G::Position;

  ConcurrentTranspositionTable* tt = nullptr;  ///< not owned; null = none
  OrderingTables* tables = nullptr;            ///< not owned; null = none

  /// The key `store` takes as the move hint when `p` produced a value; 0
  /// without a table (or for non-hashed games), so no search keys a child
  /// that no table would hold.
  [[nodiscard]] std::uint64_t hint_key(const Position& p) const noexcept {
    if constexpr (HashedGame<G>) {
      return tt != nullptr ? p.tt_key() : 0;
    } else {
      (void)p;
      return 0;
    }
  }

  /// Probe the table for `p`.  `out` is filled whenever an entry validates
  /// (its move hint is usable at any depth); the result is true only when
  /// that entry also covers `remaining` plies, which counts as a hit.
  bool probe(const Position& p, int remaining, TtHit& out,
             SearchStats& stats) const {
    if constexpr (HashedGame<G>) {
      if (tt == nullptr) return false;
      ++stats.tt_probes;
      if (tt->probe(p.tt_key(), out) && out.depth >= remaining) {
        ++stats.tt_hits;
        return true;
      }
    }
    return false;
  }

  /// Apply a covering hit to a full evaluation's window: true when the
  /// entry alone resolves the node (return its value); otherwise a bound
  /// may narrow (alpha, beta) for the search that follows.
  [[nodiscard]] static bool resolves(const TtHit& h, Value& alpha,
                                     Value& beta) noexcept {
    switch (h.bound) {
      case BoundKind::kExact:
        return true;
      case BoundKind::kLower:
        if (h.value >= beta) return true;
        if (h.value > alpha) alpha = h.value;
        return false;
      case BoundKind::kUpper:
        if (h.value <= alpha) return true;
        if (h.value < beta) beta = h.value;
        return false;
    }
    return false;
  }

  /// Store a completed fail-hard result for `p`, classified against the
  /// window it was searched with.  `best_key` is the key of the child that
  /// produced the value (0 = none), stored as the entry's move hint except
  /// on fail-lows, where no single move is responsible.
  void store(const Position& p, Value v, int remaining, Value alpha,
             Value beta, SearchStats& stats, std::uint64_t best_key = 0) const {
    if constexpr (HashedGame<G>) {
      if (tt == nullptr) return;
      const std::uint16_t hint =
          v > alpha && best_key != 0 ? move_fingerprint(best_key) : 0;
      tt->store(p.tt_key(), v, remaining, classify_bound(v, alpha, beta),
                hint);
      ++stats.tt_stores;
    } else {
      (void)p; (void)v; (void)remaining; (void)alpha; (void)beta;
      (void)stats; (void)best_key;
    }
  }

  /// Credit the child that refuted its parent (a beta cutoff): a killer
  /// slot at the child's ply and history credit scaled by the parent's
  /// remaining depth.
  void note_cutoff(const Position& child, int child_ply, int remaining) const {
    if constexpr (HashedGame<G>) {
      if (tables == nullptr) return;
      const std::uint64_t key = child.tt_key();
      tables->killers.record(child_ply, key);
      const auto r = static_cast<std::uint32_t>(remaining < 0 ? 0 : remaining);
      tables->history.add(key, r * r + 1);
    } else {
      (void)child; (void)child_ply; (void)remaining;
    }
  }

  /// Order the children (at `child_ply`) of a node about to be searched.
  /// When `sort` holds they are sorted: with ordering tables attached the
  /// TT move `hint` goes first, killers next and history breaks ties
  /// (sort_children_ordered); otherwise by static value alone.  Then the
  /// table line of every child is warmed, so by the time the search
  /// descends into a child and probes it, its slot is in cache.
  void order(const G& game, std::vector<Position>& kids, int child_ply,
             bool sort, std::uint16_t hint, SearchStats& stats) const {
    if (sort) {
      if (tables != nullptr)
        sort_children_ordered(game, kids, stats, *tables, child_ply, hint);
      else
        sort_children_by_static_value(game, kids, stats);
    }
    if constexpr (HashedGame<G>) {
      if (tt != nullptr)
        for (const Position& k : kids) tt->prefetch(k.tt_key());
    }
  }
};

}  // namespace ers
