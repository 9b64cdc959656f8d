#pragma once
// Serial alpha-beta (paper §2.1), fail-hard, in the Knuth–Moore negmax
// formulation, plus the "shallow" variant without deep cutoffs whose minimal
// tree (1- and 2-nodes only) is what the MWF baseline exploits (§2.2, §4.2).
//
// AlphaBetaSearcher is also the parallel engine's default unit kernel: the
// search below the root of every serial unit (DESIGN.md §18).  For that it
// allocates nothing per node — each ply's children go into a buffer reused
// across nodes and searches — and it takes the same optional shared-table
// hooks as serial ER (search/table_hooks.hpp).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "gametree/game.hpp"
#include "search/ordering.hpp"
#include "search/table_hooks.hpp"
#include "util/value.hpp"

namespace ers {

template <Game G>
class AlphaBetaSearcher {
 public:
  using Position = typename G::Position;
  /// Child buffers, one per ply: entry p holds the children of the node
  /// being searched at ply p.  Sized when a search starts and never during
  /// one, so the references the recursion holds into them stay valid.
  using PlyBuffers = std::vector<std::vector<Position>>;

  /// `buffers` (not owned) lets a caller keep the child buffers warm
  /// across searchers, e.g. one set per worker thread; by default the
  /// searcher uses its own, reused across its searches.
  AlphaBetaSearcher(const G& game, int depth, OrderingPolicy ordering = {},
                    PlyBuffers* buffers = nullptr)
      : game_(game), depth_(depth), ordering_(ordering), buffers_(buffers) {}
  AlphaBetaSearcher(const G&&, int, OrderingPolicy = {},
                    PlyBuffers* = nullptr) = delete;

  /// Probe and store `table` at every node: a covering entry resolves the
  /// node or narrows its window, every completed node is stored with its
  /// fail-hard bound.  Ignored unless G is a HashedGame.  Null detaches.
  AlphaBetaSearcher& with_shared_table(ConcurrentTranspositionTable* table) noexcept {
    hooks_.tt = table;
    return *this;
  }

  /// Order sorted children with shared history/killer tables and the TT
  /// move, and credit cutoffs to them (DESIGN.md §17).  Ignored unless G is
  /// a HashedGame.  Null detaches.
  AlphaBetaSearcher& with_ordering_tables(OrderingTables* tables) noexcept {
    hooks_.tables = tables;
    return *this;
  }

  /// Search with the given initial window (full width by default).  With a
  /// full-width window the result equals negmax; with a narrower window the
  /// usual fail-hard semantics apply (result <= alpha means "true value
  /// <= alpha", result >= beta means "true value >= beta").
  [[nodiscard]] SearchResult run(Window w = full_window()) {
    return run_from(game_.root(), 0, w);
  }

  /// Search the subtree rooted at `pos` (at absolute ply `start_ply`; the
  /// horizon stays at the configured depth) with the given window.  Used by
  /// the parallel engine's units and the parallel baselines' slaves.
  [[nodiscard]] SearchResult run_from(const Position& pos, int start_ply,
                                      Window w = full_window()) {
    stats_ = {};
    best_root_.reset();
    root_ply_ = start_ply;
    PlyBuffers& plies = buffers_ != nullptr ? *buffers_ : own_buffers_;
    const auto levels = static_cast<std::size_t>(std::max(depth_, 0)) + 1;
    if (plies.size() < levels) {
      plies.resize(levels);
      for (auto& b : plies) b.reserve(kChildReserve);
    }
    plies_ = plies.data();
    const Value v = visit(pos, w.alpha, w.beta, start_ply);
    return SearchResult{v, stats_};
  }

  /// The root child that achieved the returned value (the move to play);
  /// empty if the root was a leaf.  Valid after run()/run_from().
  [[nodiscard]] const std::optional<Position>& best_root_position()
      const noexcept {
    return best_root_;
  }

 private:
  Value visit(const Position& p, Value alpha, Value beta, int ply) {
    const int remaining = depth_ - ply;
    TtHit h;
    if (hooks_.probe(p, remaining, h, stats_) &&
        TableHooks<G>::resolves(h, alpha, beta))
      return h.value;
    if (ply < depth_) {
      std::vector<Position>& kids = plies_[ply];
      kids.clear();
      game_.generate_children(p, kids);
      if (!kids.empty()) {
        ++stats_.interior_expanded;
        hooks_.order(game_, kids, ply + 1, ordering_.should_sort(ply),
                     h.move_hint, stats_);
        Value m = alpha;
        std::uint64_t best_key = 0;
        for (const Position& k : kids) {
          const Value t = negate(visit(k, negate(beta), negate(m), ply + 1));
          if (t > m) {
            m = t;
            best_key = TableHooks<G>::key_of(k);
            if (ply == root_ply_) best_root_ = k;
          }
          if (m >= beta) {
            hooks_.note_cutoff(k, ply + 1, remaining);
            break;
          }
        }
        hooks_.store(p, m, remaining, alpha, beta, stats_, best_key);
        return m;
      }
    }
    ++stats_.leaves_evaluated;
    const Value v = game_.evaluate(p);
    hooks_.store(p, v, remaining, -kValueInf, kValueInf, stats_);  // exact
    return v;
  }

  const G& game_;
  int depth_;
  OrderingPolicy ordering_;
  TableHooks<G> hooks_;
  PlyBuffers* buffers_;
  PlyBuffers own_buffers_;
  std::vector<Position>* plies_ = nullptr;  ///< the running search's buffers
  SearchStats stats_;
  std::optional<Position> best_root_;
  int root_ply_ = 0;
};

template <Game G>
[[nodiscard]] SearchResult alpha_beta_search(const G& game, int depth,
                                             OrderingPolicy ordering = {},
                                             Window w = full_window()) {
  return AlphaBetaSearcher<G>(game, depth, ordering).run(w);
}

/// Alpha-beta *without deep cutoffs*: each node keeps only its local bound,
/// so a node's window derives solely from its parent (shallow cutoffs), never
/// from remoter ancestors.  Searches exactly the 1-/2-node minimal tree of
/// §2.2 on a best-first-ordered tree.
template <Game G>
class ShallowAlphaBetaSearcher {
 public:
  ShallowAlphaBetaSearcher(const G& game, int depth, OrderingPolicy ordering = {})
      : game_(game), depth_(depth), ordering_(ordering) {}
  ShallowAlphaBetaSearcher(const G&&, int, OrderingPolicy = {}) = delete;

  [[nodiscard]] SearchResult run() { return run_from(game_.root(), 0); }

  /// Subtree search with an inherited local bound (see class comment); the
  /// MWF baseline uses this for its speculative right-child units.
  [[nodiscard]] SearchResult run_from(const typename G::Position& pos,
                                      int start_ply, Value beta = kValueInf) {
    stats_ = {};
    const Value v = visit(pos, beta, start_ply);
    return SearchResult{v, stats_};
  }

 private:
  // `beta` is the only inherited bound (the negation of the parent's local
  // maximum); the local maximum starts at -inf rather than at an ancestral
  // alpha, which is precisely what forgoes deep cutoffs.
  Value visit(const typename G::Position& p, Value beta, int ply) {
    std::vector<typename G::Position> kids;
    if (ply < depth_) game_.generate_children(p, kids);
    if (kids.empty()) {
      ++stats_.leaves_evaluated;
      return game_.evaluate(p);
    }
    ++stats_.interior_expanded;
    if (ordering_.should_sort(ply))
      sort_children_by_static_value(game_, kids, stats_);
    Value m = -kValueInf;
    for (const auto& k : kids) {
      const Value t = negate(visit(k, negate(m), ply + 1));
      if (t > m) m = t;
      if (m >= beta) return m;
    }
    return m;
  }

  const G& game_;
  int depth_;
  OrderingPolicy ordering_;
  SearchStats stats_;
};

template <Game G>
[[nodiscard]] SearchResult alpha_beta_shallow_search(const G& game, int depth,
                                                     OrderingPolicy ordering = {}) {
  return ShallowAlphaBetaSearcher<G>(game, depth, ordering).run();
}

}  // namespace ers
