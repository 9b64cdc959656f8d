#pragma once
// Serial aspiration search: guess a window around an estimate of the root
// value, search with it, and re-search with a widened window on failure.
// This is the serial building block of Baudet's *parallel* aspiration search
// (paper §4.1), where the full window is split into disjoint intervals
// instead of being guessed.
//
// The window/retry protocol is independent of the searcher, so it lives in
// aspiration_drive(): aspiration_search() instantiates it over serial
// alpha-beta, and both parallel searchers, parallel_er_threads
// (core/parallel_er.hpp) and the ABDADA runner (baselines/abdada_par.hpp),
// run their roots through the same function under one policy,
// aspirates_root() with kAspirationPlies and kAspirationDelta.

#include <type_traits>
#include <utility>

#include "gametree/game.hpp"
#include "search/alpha_beta.hpp"
#include "search/ordering.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers {

/// Aspiration at the root of the parallel searchers (DESIGN.md §20;
/// EXPERIMENTS.md, "Aspiration at the root (A/B)"): the estimate is a
/// search this many plies shallower than the real one, and the guess
/// window is the estimate ± kAspirationDelta.  On 40 othello_d7-shaped
/// inputs this pair cut 1-thread ER's median node count, estimate
/// included, from 1.50× plain alpha-beta's to 1.01×, and one input
/// re-searched.
inline constexpr int kAspirationPlies = 3;
inline constexpr Value kAspirationDelta = 200;

/// True when a parallel search to `depth` under `ordering` runs its root
/// under an aspiration window.  A caller sorts by static value only when
/// static values predict subtree values, which is what a shallow estimate
/// needs; on unsorted random trees the estimate is noise (DESIGN.md §20),
/// and a search no deeper than kAspirationPlies has no estimate depth.
[[nodiscard]] constexpr bool aspirates_root(const OrderingPolicy& ordering,
                                            int depth) noexcept {
  return ordering.sort_by_static_value && depth > kAspirationPlies;
}

/// What the aspiration protocol decided, independent of who searched.
struct AspirationOutcome {
  Value value = 0;
  int searches = 1;  ///< 1 = the aspiration window held
  bool failed_low = false;
  bool failed_high = false;
};

struct AspirationResult {
  Value value = 0;
  SearchStats stats;     ///< accumulated over all (re-)searches
  int searches = 1;      ///< 1 = the aspiration window held
  bool failed_low = false;
  bool failed_high = false;
};

/// Drive any *fail-hard* windowed search through the aspiration protocol:
/// invoke `search` with the guess window (estimate-delta, estimate+delta)
/// and, if the result fails low/high, once more with the matching half-open
/// window.  Always resolves to the exact negmax value (given a sound
/// searcher).  `search` is called one or two times; accumulate stats inside
/// the callable.
template <typename SearchFn>
  requires std::is_invocable_r_v<Value, SearchFn&, Window>
[[nodiscard]] AspirationOutcome aspiration_drive(SearchFn&& search,
                                                 Value estimate, Value delta) {
  ERS_CHECK(delta > 0);
  AspirationOutcome out;

  const Window guess{estimate - delta, estimate + delta};
  Value v = search(guess);

  if (v <= guess.alpha) {
    // Fail low: true value <= alpha.  Re-search below.
    out.failed_low = true;
    ++out.searches;
    v = search(Window{-kValueInf, guess.alpha + 1});
  } else if (v >= guess.beta) {
    // Fail high: true value >= beta.  Re-search above.
    out.failed_high = true;
    ++out.searches;
    v = search(Window{guess.beta - 1, kValueInf});
  }
  out.value = v;
  return out;
}

/// Search `game` to `depth` with window (estimate-delta, estimate+delta),
/// re-searching with the appropriate half-open window on failure.  Always
/// returns the exact negmax value.
template <Game G>
[[nodiscard]] AspirationResult aspiration_search(const G& game, int depth,
                                                 Value estimate, Value delta,
                                                 OrderingPolicy ordering = {}) {
  AspirationResult out;
  AlphaBetaSearcher<G> searcher(game, depth, ordering);
  const AspirationOutcome o = aspiration_drive(
      [&](Window w) {
        const SearchResult r = searcher.run(w);
        out.stats += r.stats;
        return r.value;
      },
      estimate, delta);
  out.value = o.value;
  out.searches = o.searches;
  out.failed_low = o.failed_low;
  out.failed_high = o.failed_high;
  return out;
}

}  // namespace ers
