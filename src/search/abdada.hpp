#pragma once
// ABDADA — Alpha-Beta Distribuée avec Droit d'Aînesse (Weill 1996) — on the
// shared-TT substrate (DESIGN.md §14).
//
// Where the paper's ER coordinates parallel workers through a problem heap,
// ABDADA coordinates them through shared search state alone: every worker
// runs the *same* recursive negamax from the root, and two shared tables
// keep them out of each other's way.
//
//   * The ConcurrentTranspositionTable (search/concurrent_ttable.hpp) lets a
//     worker reuse any subtree another worker already finished.
//   * A small NprocTable (search/nproc_table.hpp) counts how many workers
//     are currently *inside* each node.  The "droit d'aînesse" (birthright):
//     the eldest son of every node is always searched, but a younger sibling
//     requested *exclusively* is skipped if some worker is already inside it
//     — the move index is pushed onto a stack-allocated deferred array and
//     the node moves on.  A second phase revisits the deferred moves
//     non-exclusively.  Workers therefore spread across siblings naturally:
//     the first arrival takes the move, later arrivals take the next one.
//
// Skips are signalled by returning kAbdadaOnEvaluation, a sentinel strictly
// outside the value domain, which the parent checks *before* negating.
//
// Deviations from Weill's pseudocode (all documented in DESIGN.md §14):
//   * nproc counters live in a separate fixed-size side table (following
//     MAGPIE's endgame solver), not inside TT entries, so the hot counters
//     stay cache-resident and the lock-free TT layout is untouched.
//   * TT cutoffs are gated on entry.depth == remaining, not >=.  A deeper
//     entry is a sound bound for a *different* evaluation (deeper horizon);
//     accepting it makes the root value depend on worker interleaving.
//     Exact-depth gating keeps every cutoff value-preserving, so the root
//     value equals serial alpha-beta at the same depth, for any thread
//     count and any schedule — the determinism the tests pin down.
//   * Positions are copied, not played/unplayed in place: every game in
//     this library exposes immutable positions with incrementally
//     maintained hashes (othello::Board updates its Zobrist key per move),
//     so "unplay" is dropping the copy.
//
// Without a table (or for a non-HashedGame such as tictactoe/connect4) the
// recursion degenerates to plain fail-hard alpha-beta — exclusivity and
// deferral are TT-keyed and compile out.

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <vector>

#include "gametree/game.hpp"
#include "obs/trace.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/nproc_table.hpp"
#include "search/ordering.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers {

/// "Some worker is already evaluating this node": returned raw (never
/// negated) by the ABDADA recursion when an exclusive request finds the
/// node busy.  Strictly outside [-kValueInf, kValueInf] so it can never
/// collide with a real search value; callers must test for it before
/// negating a child result.
inline constexpr Value kAbdadaOnEvaluation = kValueInf + 2;

template <Game G>
class AbdadaSearcher {
 public:
  AbdadaSearcher(const G& game, int depth, OrderingPolicy ordering = {})
      : game_(game), depth_(depth), ordering_(ordering) {}
  AbdadaSearcher(const G&&, int, OrderingPolicy = {}) = delete;

  /// Probe/store `table` during the search (ignored unless G is a
  /// HashedGame).  Every ABDADA worker must share one table — it is the
  /// medium the workers coordinate through.
  AbdadaSearcher& with_shared_table(ConcurrentTranspositionTable* table) noexcept {
    tt_ = table;
    return *this;
  }

  /// Attach the shared worker-occupancy side table.  Without it every
  /// exclusivity check reports "free" and deferral never triggers (correct,
  /// but workers duplicate each other's work).
  AbdadaSearcher& with_nproc_table(NprocTable* table) noexcept {
    nproc_ = table;
    return *this;
  }

  /// Consult (and train) shared history/killer tables in the move loop —
  /// TT move first when the probe carries a hint, killers and history
  /// refining the static sort (DESIGN.md §17).  Purely advisory: the
  /// depth-exact TT gating keeps the root value equal to serial alpha-beta
  /// under any ordering, so sharing tables across workers never perturbs
  /// the result.  Ignored unless G is a HashedGame; nullptr detaches.
  AbdadaSearcher& with_ordering_tables(OrderingTables* tables) noexcept {
    tables_ = tables;
    return *this;
  }

  /// Cooperative abort: checked at every node entry.  Once set, the search
  /// unwinds without storing to the table; aborted() reports it and the
  /// returned value must be discarded.
  AbdadaSearcher& with_stop(const std::atomic<bool>* stop) noexcept {
    stop_ = stop;
    return *this;
  }

  /// Emit abdada_defer / abdada_revisit instants onto `session`'s tracer
  /// for `worker`.
  AbdadaSearcher& with_trace(obs::TraceSession* session, int worker) {
    session_ = session;
    tracer_ = session != nullptr ? &session->worker(worker) : nullptr;
    return *this;
  }

  [[nodiscard]] SearchResult run(Window w = full_window()) {
    return run_from(game_.root(), 0, w);
  }

  /// Search the subtree rooted at `pos` (at absolute ply `start_ply`; the
  /// horizon stays at the configured depth).  Fail-hard with respect to `w`.
  [[nodiscard]] SearchResult run_from(typename G::Position pos, int start_ply,
                                      Window w = full_window()) {
    stats_ = {};
    best_root_.reset();
    aborted_ = false;
    root_ply_ = start_ply;
    // Size the per-ply child-buffer pool up front: visit() keeps references
    // into its level's buffer across the recursive calls, so the outer
    // vector must never reallocate mid-recursion.  One buffer per level in
    // [start_ply, depth_]; each keeps its capacity across iterative-
    // deepening re-runs, making steady-state child generation heap-free.
    const std::size_t levels =
        static_cast<std::size_t>(std::max(0, depth_ - start_ply)) + 1;
    if (kids_pool_.size() < levels) kids_pool_.resize(levels);
    for (auto& buf : kids_pool_) buf.reserve(kChildReserve);
    const Value v = visit(pos, w.alpha, w.beta, start_ply, /*exclusive=*/false);
    ERS_DCHECK(v != kAbdadaOnEvaluation);
    return SearchResult{v, stats_};
  }

  /// True if the stop flag fired during the last run: the result is
  /// meaningless and nothing was stored after the flag was observed.
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

  /// The root child that achieved the returned value (the move to play);
  /// empty if the root was a leaf.  Valid after run()/run_from().
  [[nodiscard]] const std::optional<typename G::Position>& best_root_position()
      const noexcept {
    return best_root_;
  }

 private:
  /// Deferred younger siblings per node, on the stack (MAGPIE sizes its
  /// array the same way; Othello tops out near 60 legal moves, random trees
  /// far lower).  If a node somehow exceeds this, later moves are searched
  /// immediately instead of deferred — a scheduling fallback, not an error.
  static constexpr std::size_t kMaxDeferred = 64;

  Value visit(const typename G::Position& p, Value alpha, Value beta, int ply,
              bool exclusive) {
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      // Unwind fast: the value is garbage, but aborted_ poisons every
      // store on the way out and the caller discards the result.
      aborted_ = true;
      return 0;
    }
    const int remaining = depth_ - ply;
    [[maybe_unused]] std::uint64_t key = 0;
    [[maybe_unused]] std::uint16_t tt_hint = 0;
    if constexpr (HashedGame<G>) {
      if (tt_ != nullptr || nproc_ != nullptr) key = p.tt_key();
      if (tt_ != nullptr) {
        tt_->prefetch(key);
        ++stats_.tt_probes;
        TtHit h;
        // Depth-exact gating — see the header comment on determinism.  The
        // move hint is kept from *any* validated entry: a different-depth
        // value cannot cut off, but its best move still orders this node.
        if (tt_->probe(key, h)) {
          tt_hint = h.move_hint;
          if (h.depth == remaining) {
            ++stats_.tt_hits;
            switch (h.bound) {
              case BoundKind::kExact:
                return h.value;
              case BoundKind::kLower:
                if (h.value >= beta) return h.value;
                if (h.value > alpha) alpha = h.value;
                break;
              case BoundKind::kUpper:
                if (h.value <= alpha) return h.value;
                if (h.value < beta) beta = h.value;
                break;
            }
          }
        }
      }
      // Exclusivity, after the probe: a finished answer beats a deferral.
      if (exclusive && nproc_ != nullptr && nproc_->busy(key)) {
        ++stats_.moves_deferred;
        if (tracer_ != nullptr)
          tracer_->instant(obs::EventKind::kAbdadaDefer, session_->now_ns(),
                           obs::kNoTraceNode, static_cast<std::uint32_t>(ply));
        return kAbdadaOnEvaluation;
      }
    }

    const std::size_t level = static_cast<std::size_t>(ply - root_ply_);
    ERS_DCHECK(level < kids_pool_.size());  // pool sized in run_from
    std::vector<typename G::Position>& kids = kids_pool_[level];
    kids.clear();
    if (ply < depth_) game_.generate_children(p, kids);
    if (kids.empty()) {
      ++stats_.leaves_evaluated;
      const Value v = game_.evaluate(p);
      tt_store(key, v, remaining, -kValueInf, kValueInf);  // terminal: exact
      return v;
    }
    ++stats_.interior_expanded;
    if (ordering_.should_sort(ply)) {
      bool sorted_with_tables = false;
      if constexpr (HashedGame<G>) {
        if (tables_ != nullptr) {
          sort_children_ordered(game_, kids, stats_, *tables_, ply + 1,
                                tt_hint);
          sorted_with_tables = true;
        }
      }
      if (!sorted_with_tables)
        sort_children_by_static_value(game_, kids, stats_);
    }
    prefetch_children(kids);

    if constexpr (HashedGame<G>)
      if (nproc_ != nullptr) nproc_->enter(key);

    // Phase one: the eldest son unconditionally, younger siblings
    // exclusively — a busy younger sibling is deferred, not waited on.
    Value m = alpha;
    std::uint64_t best_key = 0;
    std::array<std::uint32_t, kMaxDeferred> deferred;
    std::size_t n_deferred = 0;
    for (std::size_t i = 0; i < kids.size() && m < beta; ++i) {
      const bool excl = i > 0 && n_deferred < kMaxDeferred;
      const Value raw = visit(kids[i], negate(beta), negate(m), ply + 1, excl);
      if (raw == kAbdadaOnEvaluation) {
        deferred[n_deferred++] = static_cast<std::uint32_t>(i);
        continue;
      }
      const Value t = negate(raw);
      if (t > m) {
        m = t;
        best_key = key_of(kids[i]);
        if (ply == root_ply_) best_root_ = kids[i];
      }
    }
    // Phase two: revisit what phase one skipped, non-exclusively this time
    // (by now the busy worker has likely finished and stored).  A cutoff
    // from phase one retires the deferrals unseen.
    for (std::size_t d = 0; d < n_deferred && m < beta; ++d) {
      const std::size_t i = deferred[d];
      ++stats_.moves_revisited;
      if (tracer_ != nullptr)
        tracer_->instant(obs::EventKind::kAbdadaRevisit, session_->now_ns(),
                         obs::kNoTraceNode, static_cast<std::uint32_t>(ply + 1));
      const Value t =
          negate(visit(kids[i], negate(beta), negate(m), ply + 1, false));
      if (t > m) {
        m = t;
        best_key = key_of(kids[i]);
        if (ply == root_ply_) best_root_ = kids[i];
      }
    }

    if constexpr (HashedGame<G>)
      if (nproc_ != nullptr) nproc_->leave(key);

    if constexpr (HashedGame<G>) {
      // Train the shared ordering tables on the refuting move, like
      // er_serial's note_cutoff: killer slot at the child's ply, history
      // credit scaled by remaining depth.
      if (m >= beta && best_key != 0 && tables_ != nullptr && !aborted_) {
        tables_->killers.record(ply + 1, best_key);
        const auto r = static_cast<std::uint32_t>(remaining < 0 ? 0 : remaining);
        tables_->history.add(best_key, r * r + 1);
      }
    }
    tt_store(key, m, remaining, alpha, beta, m > alpha ? best_key : 0);
    return m;
  }

  /// The position's key, 0 for non-hashed games.
  [[nodiscard]] static std::uint64_t key_of(
      [[maybe_unused]] const typename G::Position& p) noexcept {
    if constexpr (HashedGame<G>)
      return p.tt_key();
    else
      return 0;
  }

  /// Store a completed fail-hard result, classified against the window it
  /// was searched with; `best_key` (0 = none) becomes the entry's move
  /// hint.  Poisoned by abort: a value computed from a half-unwound
  /// subtree must never reach the shared table.
  void tt_store([[maybe_unused]] std::uint64_t key, [[maybe_unused]] Value v,
                [[maybe_unused]] int remaining, [[maybe_unused]] Value alpha,
                [[maybe_unused]] Value beta,
                [[maybe_unused]] std::uint64_t best_key = 0) {
    if constexpr (HashedGame<G>) {
      if (tt_ == nullptr || aborted_) return;
      tt_->store(key, v, remaining, classify_bound(v, alpha, beta),
                 best_key != 0 ? move_fingerprint(best_key) : std::uint16_t{0});
      ++stats_.tt_stores;
    }
  }

  /// Warm the TT lines of every freshly generated child before the child
  /// loop touches them — by the time phase one probes a sibling, its slot
  /// is in cache (the prefetch-wiring satellite; er_serial.hpp does the
  /// same at expansion).
  void prefetch_children(
      [[maybe_unused]] const std::vector<typename G::Position>& kids) const {
    if constexpr (HashedGame<G>) {
      if (tt_ == nullptr) return;
      for (const auto& k : kids) tt_->prefetch(k.tt_key());
    }
  }

  const G& game_;
  int depth_;
  OrderingPolicy ordering_;
  ConcurrentTranspositionTable* tt_ = nullptr;
  OrderingTables* tables_ = nullptr;
  NprocTable* nproc_ = nullptr;
  const std::atomic<bool>* stop_ = nullptr;
  obs::TraceSession* session_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  SearchStats stats_;
  std::optional<typename G::Position> best_root_;
  /// Per-level child buffers, indexed by ply - root_ply_ (see run_from).
  std::vector<std::vector<typename G::Position>> kids_pool_;
  int root_ply_ = 0;
  bool aborted_ = false;
};

/// One-shot serial ABDADA (no tables): plain fail-hard alpha-beta with
/// ABDADA's traversal — the 1-thread identity baseline.
template <Game G>
[[nodiscard]] SearchResult abdada_serial_search(const G& game, int depth,
                                                OrderingPolicy ordering = {}) {
  return AbdadaSearcher<G>(game, depth, ordering).run();
}

}  // namespace ers
