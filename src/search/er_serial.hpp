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
// Unit entry points (eval_first_from, refute_rest_from, refute_from,
// run_from) are the serial work units the parallel engine hands a worker at
// its serial-depth cutover.  Below a unit's root they search with serial ER
// by default, or with an attached alpha-beta kernel (with_unit_kernel; the
// engine's default, DESIGN.md §18); search() is the one point where the two
// part.

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gametree/game.hpp"
#include "search/alpha_beta.hpp"
#include "search/ordering.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers {

template <Game G>
class ErSerialSearcher {
 public:
  using Position = typename G::Position;

  ErSerialSearcher(const G& game, int depth, OrderingPolicy ordering = {})
      : game_(game), depth_(depth), ordering_(ordering) {}
  ErSerialSearcher(const G&&, int, OrderingPolicy = {}) = delete;

  /// Search below the root of every entry point with `kernel` instead of
  /// serial ER: run_from and refute_from become one kernel search of the
  /// node, while eval_first_from and refute_rest_from keep Figure 8's
  /// protocol at the node and search its children with the kernel.  Not
  /// owned; pass nullptr to restore serial ER.
  ErSerialSearcher& with_unit_kernel(AlphaBetaSearcher<G>* kernel) noexcept {
    kernel_ = kernel;
    return *this;
  }

  [[nodiscard]] SearchResult run() { return run_from(game_.root(), 0); }

  /// Search the subtree rooted at `pos` (which sits at absolute ply
  /// `start_ply`; the horizon stays at the searcher's configured depth) with
  /// an initial window.  Fail-hard with respect to `w`.  This is also the
  /// parallel engine's unit for e-nodes and horizon nodes.
  [[nodiscard]] SearchResult run_from(const Position& pos, int start_ply,
                                      Window w = full_window()) {
    stats_ = {};
    best_root_.reset();
    root_ply_ = start_ply;
    const Value v = search(pos, w.alpha, w.beta, start_ply, /*e_node=*/true);
    if (kernel_ != nullptr) best_root_ = kernel_->best_root_position();
    return SearchResult{v, stats_};
  }

  /// The root child that achieved the returned value (the move to play);
  /// empty if the root was a leaf.  Valid after run()/run_from().
  [[nodiscard]] const std::optional<Position>& best_root_position()
      const noexcept {
    return best_root_;
  }

  /// Result of an Eval_first-only unit (parallel engine, cutover nodes).
  struct PartialResult {
    Value value = 0;
    bool done = false;  ///< cutoff, single child or leaf: resolved
    SearchStats stats;
  };

  /// Figure 8's Eval_first applied at (pos, ply): generate and order
  /// the children into `children` (replacing its contents), fully evaluate
  /// the first one, and report the node's tentative value.  `children` is
  /// the frozen child order a later refute_rest_from continues with; it is
  /// left empty when the node resolved without expanding.
  [[nodiscard]] PartialResult eval_first_from(const Position& pos, int ply,
                                              Window w,
                                              std::vector<Position>& children) {
    stats_ = {};
    children.clear();
    PartialResult out;
    out.done = true;
    if (ply < depth_) game_.generate_children(pos, children);
    if (children.empty()) {
      ++stats_.leaves_evaluated;
      out.value = game_.evaluate(pos);
    } else {
      ++stats_.interior_expanded;
      if (ordering_.should_sort(ply))
        sort_children_by_static_value(game_, children, stats_);
      const Value t = negate(search(children.front(), negate(w.beta),
                                    negate(w.alpha), ply + 1,
                                    /*e_node=*/true));
      out.value = std::max(w.alpha, t);
      out.done = out.value >= w.beta || children.size() == 1;
    }
    out.stats = stats_;
    return out;
  }

  /// Figure 8's Refute_rest applied at a node at `ply`: finish it after its
  /// first child already contributed `tentative`; `children` must be the
  /// exact order eval_first_from produced (the expansion is not recounted).
  /// Takes a span so the parallel engine can pass the child order frozen
  /// in its cold record without copying it.
  [[nodiscard]] SearchResult refute_rest_from(
      int ply, Window w, Value tentative, std::span<const Position> children) {
    stats_ = {};
    ERS_CHECK(!children.empty());
    // Keep the tentative value (see header comment).  The window may have
    // tightened since Eval_first ran; the tentative value alone can
    // already refute the node.
    Value v = std::max(tentative, w.alpha);
    for (std::size_t i = 1; i < children.size() && v < w.beta; ++i) {
      const Value t = negate(search(children[i], negate(w.beta), negate(v),
                                    ply + 1, /*e_node=*/false));
      if (t > v) v = t;
    }
    return SearchResult{v, stats_};
  }

  /// Serial refutation of a fresh node: Eval_first, then (if not already
  /// done) Refute_rest — the r-node path of Figure 8's main loop.
  [[nodiscard]] SearchResult refute_from(const Position& pos, int start_ply,
                                         Window w) {
    stats_ = {};
    const Value v = search(pos, w.alpha, w.beta, start_ply, /*e_node=*/false);
    return SearchResult{v, stats_};
  }

 private:
  /// Per-node search record: Figure 8's `node` with the child list cached so
  /// eval_first and refute_rest see one consistent, once-generated ordering.
  struct Rec {
    explicit Rec(Position position) : pos(std::move(position)) {}

    Position pos;
    Value value = -kValueInf;  ///< tentative value, own side's perspective
    bool done = false;
    bool expanded = false;
    std::vector<Rec> kids;
  };

  /// Fully search a fresh node within (alpha, beta) — the one point where
  /// the unit kernel is chosen.  Serial ER follows Figure 8 for the node's
  /// role: a full ER evaluation for an e-node, Eval_first then Refute_rest
  /// otherwise.  The alpha-beta kernel searches both alike.
  Value search(const Position& pos, Value alpha, Value beta, int ply,
               bool e_node) {
    if (kernel_ != nullptr) {
      const SearchResult r = kernel_->run_from(pos, ply, Window{alpha, beta});
      stats_ += r.stats;
      return r.value;
    }
    Rec r(pos);
    if (e_node) return er(r, alpha, beta, ply);
    const Value v = eval_first(r, alpha, beta, ply);
    return r.done ? v : refute_rest(r, alpha, beta, ply);
  }

  /// Generate (once) and possibly statically order the children of `r`.
  /// Returns true if `r` is a leaf at this ply.
  bool expand(Rec& r, int ply, bool is_e_node) {
    if (r.expanded) return r.kids.empty();
    r.expanded = true;
    // Reused scratch: every element is moved out into r.kids below before
    // expand can be re-entered (the recursion happens after this returns),
    // so one buffer per thread suffices and steady-state expansion does not
    // touch the heap.
    static thread_local std::vector<Position> kids;
    kids.clear();
    kids.reserve(kChildReserve);
    if (ply < depth_) game_.generate_children(r.pos, kids);
    if (kids.empty()) {
      ++stats_.leaves_evaluated;
      return true;
    }
    ++stats_.interior_expanded;
    if (!is_e_node && ordering_.should_sort(ply))
      sort_children_by_static_value(game_, kids, stats_);
    r.kids.reserve(kids.size());
    for (auto& k : kids) r.kids.emplace_back(std::move(k));
    return false;
  }

  /// Figure 8, function ER: a *full* fail-hard evaluation of p within
  /// (alpha, beta).
  Value er(Rec& p, Value alpha, Value beta, int ply) {
    if (expand(p, ply, /*is_e_node=*/true)) return game_.evaluate(p.pos);
    p.value = alpha;
    // Phase 1: evaluate every child's first child (the elder grandchildren).
    for (Rec& c : p.kids) {
      const Value t = negate(eval_first(c, negate(beta), negate(p.value), ply + 1));
      if (c.done) {
        if (t > p.value) {
          p.value = t;
          if (ply == root_ply_) best_root_ = c.pos;
        }
        if (p.value >= beta) return p.value;
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
        if (ply == root_ply_) best_root_ = c.pos;
      }
      if (p.value >= beta) break;
    }
    return p.value;
  }

  /// Figure 8, function Eval_first: give `p` a tentative value by fully
  /// evaluating (with ER) its first child.
  Value eval_first(Rec& p, Value alpha, Value beta, int ply) {
    if (expand(p, ply, /*is_e_node=*/false)) {
      p.done = true;
      p.value = game_.evaluate(p.pos);
      return p.value;
    }
    p.value = alpha;
    const Value t = negate(er(p.kids.front(), negate(beta), negate(p.value), ply + 1));
    if (t > p.value) p.value = t;
    p.done = p.value >= beta || p.kids.size() == 1;
    return p.value;
  }

  /// Figure 8, function Refute_rest: examine p's remaining children until p
  /// is refuted (value >= beta) or exhausted.
  Value refute_rest(Rec& p, Value alpha, Value beta, int ply) {
    ERS_DCHECK(p.expanded && !p.kids.empty());
    // Keep the tentative value from Eval_first (see header comment).  The
    // parent's bound may have tightened since Eval_first ran; the tentative
    // value alone can already refute p.
    p.value = std::max(p.value, alpha);
    for (std::size_t i = 1; i < p.kids.size() && p.value < beta; ++i) {
      Rec& c = p.kids[i];
      Value t = negate(eval_first(c, negate(beta), negate(p.value), ply + 1));
      if (!c.done)
        t = negate(refute_rest(c, negate(beta), negate(p.value), ply + 1));
      if (t > p.value) p.value = t;
    }
    return p.value;
  }

  const G& game_;
  int depth_;
  OrderingPolicy ordering_;
  AlphaBetaSearcher<G>* kernel_ = nullptr;
  SearchStats stats_;
  std::optional<Position> best_root_;
  int root_ply_ = 0;
};

template <Game G>
[[nodiscard]] SearchResult er_serial_search(const G& game, int depth,
                                            OrderingPolicy ordering = {}) {
  return ErSerialSearcher<G>(game, depth, ordering).run();
}

}  // namespace ers
