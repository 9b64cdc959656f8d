#include "othello/eval.hpp"

namespace ers::othello {

// Builds that select no instruction set compile std::popcount to a library
// call.  Two clones of this function, picked once at load time by an ifunc
// resolver, give hosts with POPCNT the instruction without a build flag.
// Only popcnt: a whole-ISA clone measured slower than the default body.
// ThreadSanitizer builds compile the one default body, because GCC
// instruments the resolver, which runs before the TSan runtime starts and
// crashes the program at start-up.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ERS_EVAL_TSAN 1
#endif
#endif
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__) && !defined(ERS_EVAL_TSAN)
__attribute__((target_clones("popcnt", "default")))
#endif
Value evaluate_board(const Board& b, const EvalWeights& w) {
  const Bitboard own = b.own();
  const Bitboard opp = b.opp();
  const Bitboard own_moves = legal_moves(own, opp);
  const Bitboard opp_moves = legal_moves(opp, own);

  if (own_moves == 0 && opp_moves == 0) {
    // Game over: exact outcome, scaled beyond any heuristic value.
    return static_cast<Value>(popcount(own) - popcount(opp)) * w.terminal_scale;
  }

  const Bitboard empty = b.empty();
  const int positional = positional_score(own) - positional_score(opp);
  const int mobility = popcount(own_moves) - popcount(opp_moves);
  // Fewer own frontier discs (discs touching empties) is good.
  const int potential = frontier_count(opp, empty) - frontier_count(own, empty);
  const int corners = popcount(own & kCorners) - popcount(opp & kCorners);
  const int discs = popcount(own) - popcount(opp);
  const int stage_weight =
      popcount(b.occupied()) < w.stage_boundary ? w.discs_early : w.discs_late;

  const long long v = static_cast<long long>(w.positional) * positional +
                      static_cast<long long>(w.mobility) * mobility +
                      static_cast<long long>(w.potential_mobility) * potential +
                      static_cast<long long>(w.corners) * corners +
                      static_cast<long long>(stage_weight) * discs;
  return static_cast<Value>(v);
}

}  // namespace ers::othello
