#pragma once
// Serial ER (paper §5, Figure 8).
//
// ER views search as *evaluating* one child per node (the e-child) and
// *refuting* the rest.  Before committing to an e-child of node E, ER
// evaluates the first child of every child of E (E's "elder grandchildren"),
// then sorts E's children by the resulting tentative values and finishes
// them in that order: the first unfinished child effectively becomes the
// e-child, and the improved bound it produces refutes the others.
//
// Structure, following Figure 8:
//   er(P)          — the paper's ER: Eval_first every child, sort by
//                    tentative value, then Refute_rest the unfinished ones.
//   eval_first(P)  — evaluate P's first child (recursively, with er), giving
//                    P a tentative value; P is done if that already cuts off
//                    or P has a single child.
//   refute_rest(P) — finish P: try to refute its remaining children in
//                    order, re-descending with eval_first/refute_rest.
//
// Deviation from the printed pseudocode (documented in DESIGN.md §1):
// Refute_rest begins with `value := max(value, alpha)` rather than
// `value := alpha`; the literal assignment discards the tentative value from
// Eval_first and can produce an unsound spurious cutoff in the parent.  The
// regression test RefuteRestKeepsTentativeValue pins a tree where the
// literal pseudocode returns a wrong root value.
//
// Move ordering (paper §7): children of non-e-nodes may be statically
// sorted; e-node children never are — ER orders them by the (better)
// search-derived tentative values, which is why serial ER can beat
// alpha-beta in wall time even while visiting more nodes (the O1 anomaly).
//
// Shared transposition table (HashedGame only): with_shared_table() attaches
// a lock-free ConcurrentTranspositionTable that the search probes and stores
// as it goes — ER full evaluations (er) probe on entry and store their
// classified fail-hard result on exit; Eval_first accepts only *conclusive*
// hits (exact, or a bound that already resolves the window) since its normal
// result is tentative and must not be stored; Refute_rest stores its final
// value (it completes the node).  This is how parallel ER workers share
// search knowledge: every serial subtree unit reads and feeds the one table.

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gametree/game.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/ordering.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers {

template <Game G>
class ErSerialSearcher {
 public:
  ErSerialSearcher(const G& game, int depth, OrderingPolicy ordering = {})
      : game_(game), depth_(depth), ordering_(ordering) {}
  ErSerialSearcher(const G&&, int, OrderingPolicy = {}) = delete;

  /// Probe/store `table` during the search (shared-memory runtime: one table
  /// serves every worker's serial units).  Ignored unless G is a HashedGame.
  /// Pass nullptr to detach.
  ErSerialSearcher& with_shared_table(ConcurrentTranspositionTable* table) noexcept {
    tt_ = table;
    return *this;
  }

  /// Consult (and train) shared history/killer tables during expansion-time
  /// child sorts — the TT move sorts first when a probe carries a hint,
  /// killers of the child ply next, history credit breaks ties (DESIGN.md
  /// §17).  Ignored unless G is a HashedGame.  Pass nullptr to detach.
  ErSerialSearcher& with_ordering_tables(OrderingTables* tables) noexcept {
    tables_ = tables;
    return *this;
  }

  [[nodiscard]] SearchResult run() { return run_from(game_.root(), 0); }

  /// Search the subtree rooted at `pos` (which sits at absolute ply
  /// `start_ply`; the horizon stays at the searcher's configured depth) with
  /// an initial window.  Fail-hard with respect to `w`.  This entry point is
  /// what the parallel engine uses below its serial-depth cutover.
  [[nodiscard]] SearchResult run_from(typename G::Position pos, int start_ply,
                                      Window w = full_window()) {
    stats_ = {};
    best_root_.reset();
    root_ply_ = start_ply;
    Rec root(std::move(pos));
    const Value v = er(root, w.alpha, w.beta, start_ply);
    return SearchResult{v, stats_};
  }

  /// The root child that achieved the returned value (the move to play);
  /// empty if the root was a leaf.  Valid after run()/run_from().
  [[nodiscard]] const std::optional<typename G::Position>& best_root_position()
      const noexcept {
    return best_root_;
  }

  /// Result of an Eval_first-only unit (parallel engine, cutover nodes).
  struct PartialResult {
    Value value = 0;
    bool done = false;  ///< cutoff achieved or single child: node resolved
    std::vector<typename G::Position> children;  ///< generated child order
    SearchStats stats;
  };

  /// Figure 8's Eval_first applied at (pos, start_ply): generate (and
  /// order) the children, fully evaluate the first one, and report the
  /// node's tentative value plus the frozen child order so a later
  /// refute_rest_from continues consistently.
  [[nodiscard]] PartialResult eval_first_from(typename G::Position pos,
                                              int start_ply, Window w) {
    stats_ = {};
    Rec root(std::move(pos));
    PartialResult out;
    out.value = eval_first(root, w.alpha, w.beta, start_ply);
    out.done = root.done;
    out.children.reserve(root.kids.size());
    for (Rec& k : root.kids) out.children.push_back(std::move(k.pos));
    out.stats = stats_;
    return out;
  }

  /// Figure 8's Refute_rest applied at (pos, start_ply): finish a node whose
  /// first child already contributed `tentative`; `children` must be the
  /// exact list returned by eval_first_from (the expansion is not recounted).
  /// Takes a span so the parallel engine can pass its slab-frozen child
  /// array without materializing a vector.
  [[nodiscard]] SearchResult refute_rest_from(
      typename G::Position pos, int start_ply, Window w, Value tentative,
      std::span<const typename G::Position> children) {
    stats_ = {};
    ERS_CHECK(!children.empty());
    Rec root(std::move(pos));
    root.expanded = true;
    root.kids.reserve(children.size());
    for (const auto& c : children) root.kids.emplace_back(c);
    root.value = tentative;
    const Value v = refute_rest(root, w.alpha, w.beta, start_ply);
    return SearchResult{v, stats_};
  }

  /// Serial refutation of a fresh node: Eval_first, then (if not already
  /// done) Refute_rest — the r-node path of Figure 8's main loop.
  [[nodiscard]] SearchResult refute_from(typename G::Position pos,
                                         int start_ply, Window w) {
    stats_ = {};
    Rec root(std::move(pos));
    Value v = eval_first(root, w.alpha, w.beta, start_ply);
    if (!root.done) v = refute_rest(root, w.alpha, w.beta, start_ply);
    return SearchResult{v, stats_};
  }

 private:
  /// Per-node search record: Figure 8's `node` with the child list cached so
  /// eval_first and refute_rest see one consistent, once-generated ordering.
  struct Rec {
    explicit Rec(typename G::Position position) : pos(std::move(position)) {}

    typename G::Position pos;
    Value value = -kValueInf;  ///< tentative value, own side's perspective
    bool done = false;
    bool expanded = false;
    std::vector<Rec> kids;
  };

  /// Generate (once) and possibly statically order the children of `r`.
  /// Returns true if `r` is a leaf at this ply.
  bool expand(Rec& r, int ply, bool is_e_node) {
    if (r.expanded) return r.kids.empty();
    r.expanded = true;
    // Reused scratch: every element is moved out into r.kids below before
    // expand can be re-entered (the recursion happens after this returns),
    // so one buffer per thread suffices and steady-state expansion does not
    // touch the heap.
    static thread_local std::vector<typename G::Position> kids;
    kids.clear();
    kids.reserve(kChildReserve);
    if (ply < depth_) game_.generate_children(r.pos, kids);
    if (kids.empty()) {
      ++stats_.leaves_evaluated;
      return true;
    }
    ++stats_.interior_expanded;
    if (!is_e_node && ordering_.should_sort(ply)) {
      bool sorted_with_tables = false;
      if constexpr (HashedGame<G>) {
        if (tables_ != nullptr) {
          // The parent's stored best-move fingerprint fronts the TT move;
          // any stored entry carries it, regardless of depth coverage.
          std::uint16_t hint = 0;
          TtHit h;
          if (tt_ != nullptr && tt_->probe(r.pos.tt_key(), h))
            hint = h.move_hint;
          sort_children_ordered(game_, kids, stats_, *tables_, ply + 1, hint);
          sorted_with_tables = true;
        }
      }
      if (!sorted_with_tables)
        sort_children_by_static_value(game_, kids, stats_);
    }
    // Warm the table lines of the whole sibling set now: by the time
    // er/eval_first descends into each child and probes it, its slot is in
    // cache.  (The probe-site prefetch in tt_probe fires too late to hide
    // any latency — it is immediately followed by the load.)
    if constexpr (HashedGame<G>) {
      if (tt_ != nullptr)
        for (const auto& k : kids) tt_->prefetch(k.tt_key());
    }
    r.kids.reserve(kids.size());
    for (auto& k : kids) r.kids.emplace_back(std::move(k));
    return false;
  }

  // --- shared-table plumbing (no-ops without a table / non-hashed game) ---

  /// Probe the shared table for `p`; true only when the entry validates and
  /// covers the remaining depth.
  bool tt_probe(const Rec& p, int remaining, TtHit& out) {
    if constexpr (HashedGame<G>) {
      if (tt_ == nullptr) return false;
      const std::uint64_t key = p.pos.tt_key();
      tt_->prefetch(key);
      ++stats_.tt_probes;
      if (tt_->probe(key, out) && out.depth >= remaining) {
        ++stats_.tt_hits;
        return true;
      }
    }
    return false;
  }

  /// Store a completed fail-hard result for `p`, classified against the
  /// window it was searched with; `best_key` is the key of the child that
  /// produced the value (0 = none), stored as the entry's move hint except
  /// on fail-lows, where no single move is responsible.
  void tt_store(const Rec& p, Value v, int remaining, Value alpha, Value beta,
                std::uint64_t best_key = 0) {
    if constexpr (HashedGame<G>) {
      if (tt_ == nullptr) return;
      const std::uint16_t hint =
          v > alpha && best_key != 0 ? move_fingerprint(best_key) : 0;
      tt_->store(p.pos.tt_key(), v, remaining, classify_bound(v, alpha, beta),
                 hint);
      ++stats_.tt_stores;
    }
  }

  /// Credit the child that refuted its parent (a beta cutoff) to the shared
  /// ordering tables: a killer slot at the child's ply and history credit
  /// scaled by the parent's remaining depth.
  void note_cutoff(const Rec& child, int child_ply, int remaining) {
    if constexpr (HashedGame<G>) {
      if (tables_ == nullptr) return;
      const std::uint64_t key = child.pos.tt_key();
      tables_->killers.record(child_ply, key);
      const auto r =
          static_cast<std::uint32_t>(remaining < 0 ? 0 : remaining);
      tables_->history.add(key, r * r + 1);
    } else {
      (void)child; (void)child_ply; (void)remaining;
    }
  }

  /// Figure 8, function ER — a *full* fail-hard evaluation of p within
  /// (alpha, beta) — wrapped with shared-table probe and store.
  Value er(Rec& p, Value alpha, Value beta, int ply) {
    const int remaining = depth_ - ply;
    TtHit h;
    if (tt_probe(p, remaining, h)) {
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
    if (expand(p, ply, /*is_e_node=*/true)) {
      const Value v = game_.evaluate(p.pos);
      tt_store(p, v, remaining, -kValueInf, kValueInf);  // terminal: exact
      return v;
    }
    const Value v = er_children(p, alpha, beta, ply);
    tt_store(p, v, remaining, alpha, beta, best_child_key_);
    return v;
  }

  /// The child's position key, 0 for non-hashed games.
  [[nodiscard]] static std::uint64_t key_of(const Rec& r) noexcept {
    if constexpr (HashedGame<G>)
      return r.pos.tt_key();
    else
      return 0;
  }

  /// ER's two phases over an expanded interior node.  Sets best_child_key_
  /// (read by the caller immediately on return — recursion below reuses it)
  /// to the child that produced the final value, for the TT move hint.
  Value er_children(Rec& p, Value alpha, Value beta, int ply) {
    std::uint64_t best_key = 0;
    p.value = alpha;
    // Phase 1: evaluate every child's first child (the elder grandchildren).
    for (Rec& c : p.kids) {
      const Value t = negate(eval_first(c, negate(beta), negate(p.value), ply + 1));
      if (c.done) {
        if (t > p.value) {
          p.value = t;
          best_key = key_of(c);
          if (ply == root_ply_) best_root_ = c.pos;
        }
        if (p.value >= beta) {
          note_cutoff(c, ply + 1, depth_ - ply);
          best_child_key_ = best_key;
          return p.value;
        }
      }
    }
    // Phase 2: sort by tentative value (ascending: lowest child value is the
    // most promising e-child) and finish the unfinished children in order.
    std::stable_sort(p.kids.begin(), p.kids.end(),
                     [](const Rec& a, const Rec& b) { return a.value < b.value; });
    for (Rec& c : p.kids) {
      if (c.done) continue;
      const Value t = negate(refute_rest(c, negate(beta), negate(p.value), ply + 1));
      if (t > p.value) {
        p.value = t;
        best_key = key_of(c);
        if (ply == root_ply_) best_root_ = c.pos;
      }
      if (p.value >= beta) {
        note_cutoff(c, ply + 1, depth_ - ply);
        break;
      }
    }
    best_child_key_ = best_key;
    return p.value;
  }

  /// Figure 8, function Eval_first: give `p` a tentative value by fully
  /// evaluating (with ER) its first child.  A table hit resolves the node
  /// only when *conclusive* — exact, or a bound that already decides the
  /// window — because Eval_first's normal product is a tentative value and
  /// an inconclusive bound cannot substitute for one.
  Value eval_first(Rec& p, Value alpha, Value beta, int ply) {
    TtHit h;
    if (tt_probe(p, depth_ - ply, h)) {
      const bool conclusive =
          h.bound == BoundKind::kExact ||
          (h.bound == BoundKind::kLower && h.value >= beta) ||
          (h.bound == BoundKind::kUpper && h.value <= alpha);
      if (conclusive) {
        p.value = h.value;
        p.done = true;
        return p.value;
      }
    }
    if (expand(p, ply, /*is_e_node=*/false)) {
      p.done = true;
      p.value = game_.evaluate(p.pos);
      tt_store(p, p.value, depth_ - ply, -kValueInf, kValueInf);
      return p.value;
    }
    p.value = alpha;
    const Value t = negate(er(p.kids.front(), negate(beta), negate(p.value), ply + 1));
    if (t > p.value) p.value = t;
    p.done = p.value >= beta || p.kids.size() == 1;
    if (p.value >= beta) note_cutoff(p.kids.front(), ply + 1, depth_ - ply);
    return p.value;
  }

  /// Figure 8, function Refute_rest, wrapped with a shared-table store:
  /// Refute_rest *completes* a node, so its fail-hard result is a storable
  /// bound against the window it finished under.  (No probe here beyond the
  /// conclusive check: the node was already probed by er/eval_first, but a
  /// concurrent worker may have finished it in the meantime.)
  Value refute_rest(Rec& p, Value alpha, Value beta, int ply) {
    const int remaining = depth_ - ply;
    TtHit h;
    if (tt_probe(p, remaining, h)) {
      if (h.bound == BoundKind::kExact ||
          (h.bound == BoundKind::kLower && h.value >= beta) ||
          (h.bound == BoundKind::kUpper && h.value <= alpha))
        return h.value;
    }
    const Value v = refute_rest_children(p, alpha, beta, ply);
    tt_store(p, v, remaining, alpha, beta, best_child_key_);
    return v;
  }

  /// Figure 8, function Refute_rest: examine p's remaining children until p
  /// is refuted (value >= beta) or exhausted.
  Value refute_rest_children(Rec& p, Value alpha, Value beta, int ply) {
    ERS_DCHECK(p.expanded && !p.kids.empty());
    // The tentative value (if it survives max against alpha) came from the
    // first child, making it the hint candidate until a later child raises.
    std::uint64_t best_key = p.value > alpha ? key_of(p.kids.front()) : 0;
    // Keep the tentative value from Eval_first (see header comment).
    p.value = std::max(p.value, alpha);
    // The parent's bound may have tightened since Eval_first ran; the
    // tentative value alone can already refute p.
    if (p.value >= beta) {
      note_cutoff(p.kids.front(), ply + 1, depth_ - ply);
      best_child_key_ = best_key;
      return p.value;
    }
    for (std::size_t i = 1; i < p.kids.size(); ++i) {
      Rec& c = p.kids[i];
      Value t = negate(eval_first(c, negate(beta), negate(p.value), ply + 1));
      if (!c.done)
        t = negate(refute_rest(c, negate(beta), negate(p.value), ply + 1));
      if (t > p.value) {
        p.value = t;
        best_key = key_of(c);
      }
      if (p.value >= beta) {
        note_cutoff(c, ply + 1, depth_ - ply);
        break;
      }
    }
    best_child_key_ = best_key;
    return p.value;
  }

  const G& game_;
  int depth_;
  OrderingPolicy ordering_;
  ConcurrentTranspositionTable* tt_ = nullptr;
  OrderingTables* tables_ = nullptr;
  SearchStats stats_;
  std::optional<typename G::Position> best_root_;
  int root_ply_ = 0;
  /// Key of the child that produced the last er_children /
  /// refute_rest_children result — valid only immediately after those
  /// calls return (deeper recursion overwrites it), which is exactly when
  /// er/refute_rest read it for the TT move hint.
  std::uint64_t best_child_key_ = 0;
};

template <Game G>
[[nodiscard]] SearchResult er_serial_search(const G& game, int depth,
                                            OrderingPolicy ordering = {}) {
  return ErSerialSearcher<G>(game, depth, ordering).run();
}

}  // namespace ers
