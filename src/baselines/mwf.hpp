#pragma once
// Mandatory Work First (paper §4.2; Akl, Barnard & Doran 1982) as a
// problem-heap engine, driven by the same sim::SimExecutor as parallel ER so
// the comparison bench measures both under identical cost assumptions.
//
// Phase structure (expressed as scheduling gates rather than barriers):
//  * The minimal tree of alpha-beta *without deep cutoffs* (1- and 2-nodes,
//    §2.2's second rule set) is mandatory: a 1-node schedules all its
//    children (first child a 1-node, the rest 2-nodes); a 2-node schedules
//    only its first child (a 1-node).
//  * The right children of 2-nodes are speculative.  Right child s_i starts
//    only after the 2-node's immediate left sibling has finished (so a
//    refutation bound exists) and all earlier siblings s_j, j < i, have
//    finished; it is then searched by serial alpha-beta as a single unit.
//  * Nodes at the serial-depth cutover are resolved by one serial
//    alpha-beta unit, like the ER engine's parallel-tree leaves.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "gametree/game.hpp"
#include "search/alpha_beta.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers::baselines {

struct MwfStats {
  SearchStats search;
  std::uint64_t units_processed = 0;
  std::uint64_t speculative_units = 0;  ///< right children of 2-nodes searched
  std::uint64_t cutoffs_at_pop = 0;
  std::uint64_t dead_items_dropped = 0;
};

template <Game G>
class MwfEngine {
 public:
  using Position = typename G::Position;

  struct Config {
    int search_depth = 7;
    int serial_depth = 5;
    OrderingPolicy ordering;
  };

  struct ComputeResult {
    std::vector<Position> child_positions;
    bool positions_computed = false;
    Value value = 0;
    bool is_leaf = false;
    SearchStats stats;
  };

  struct Item {
    std::uint32_t node = 0;
    bool serial_unit = false;
    Window window;
    /// Stable node pointer captured at acquire (see core::WorkItem).
    const void* node_ref = nullptr;
  };

  MwfEngine(const G&&, Config) = delete;
  MwfEngine(const G& game, Config cfg) : game_(game), cfg_(cfg) {
    ERS_CHECK(cfg_.search_depth >= 0);
    cfg_.serial_depth = std::clamp(cfg_.serial_depth, 0, cfg_.search_depth);
    nodes_.push_back(Node(game_.root(), core::kNoNode, 0, 0, /*type1=*/true,
                          /*spec=*/false));
    push(0);
  }

  [[nodiscard]] std::optional<Item> acquire() {
    while (!queue_.empty()) {
      const Entry e = queue_.top();
      queue_.pop();
      Node& n = nodes_[e.node];
      if (!n.queued) continue;
      n.queued = false;
      if (n.finished || is_dead(e.node)) {
        ++stats_.dead_items_dropped;
        continue;
      }
      if (n.parent != core::kNoNode && n.value >= beta_of(e.node)) {
        ++stats_.cutoffs_at_pop;
        finish_and_combine(e.node);
        continue;
      }
      const bool serial = n.speculative || n.ply >= cfg_.serial_depth;
      return Item{e.node, serial, Window{-kValueInf, beta_of(e.node)}, &n};
    }
    return std::nullopt;
  }

  [[nodiscard]] ComputeResult compute(const Item& item) const {
    const Node& n = *static_cast<const Node*>(item.node_ref);
    ComputeResult out;
    if (item.serial_unit) {
      AlphaBetaSearcher<G> searcher(game_, cfg_.search_depth, cfg_.ordering);
      const SearchResult r = searcher.run_from(n.pos, n.ply, item.window);
      out.value = r.value;
      out.stats = r.stats;
      return out;
    }
    out.positions_computed = true;
    game_.generate_children(n.pos, out.child_positions);
    if (out.child_positions.empty()) {
      out.is_leaf = true;
      out.value = game_.evaluate(n.pos);
      out.stats.leaves_evaluated = 1;
      return out;
    }
    out.stats.interior_expanded = 1;
    if (cfg_.ordering.should_sort(n.ply))
      sort_children_by_static_value(game_, out.child_positions, out.stats);
    return out;
  }

  void commit(const Item& item, ComputeResult&& r) {
    Node& n = nodes_[item.node];
    stats_.search += r.stats;
    ++stats_.units_processed;
    if (item.serial_unit) {
      if (n.speculative) ++stats_.speculative_units;
      n.value = std::max(n.value, r.value);
      finish_and_combine(item.node);
      return;
    }
    if (r.is_leaf) {
      n.value = std::max(n.value, r.value);
      finish_and_combine(item.node);
      return;
    }
    n.child_positions = std::move(r.child_positions);
    n.child_nodes.assign(n.child_positions.size(), core::kNoNode);
    n.expanded = true;
    if (n.type1) {
      // Rule ii: every child is in the minimal tree — first child a 1-node,
      // the rest 2-nodes.  Create in reverse so LIFO pops go left-to-right.
      for (int i = static_cast<int>(n.child_positions.size()) - 1; i >= 0; --i)
        make_child(item.node, i, /*type1=*/i == 0, /*spec=*/false);
    } else {
      // Rule iii: only the first child (a 1-node) is mandatory.
      make_child(item.node, 0, /*type1=*/true, /*spec=*/false);
    }
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] Value root_value() const noexcept { return nodes_[0].value; }
  [[nodiscard]] const MwfStats& stats() const noexcept { return stats_; }

 private:
  struct Node {
    Node(Position position, std::uint32_t parent_id, int ply_at, int index,
         bool is_type1, bool is_speculative)
        : pos(std::move(position)), parent(parent_id), ply(ply_at),
          child_index(index), type1(is_type1), speculative(is_speculative) {}

    Position pos;
    std::uint32_t parent;
    std::int32_t ply;
    std::int32_t child_index;
    bool type1;
    bool speculative;  ///< right child of a 2-node: one serial unit
    Value value = -kValueInf;
    bool finished = false;
    bool expanded = false;
    bool queued = false;
    std::vector<Position> child_positions;
    std::vector<std::uint32_t> child_nodes;
    std::int32_t generated = 0;
    std::int32_t finished_children = 0;
  };

  struct Entry {
    std::int32_t ply;
    std::uint64_t seq;
    std::uint32_t node;
    bool operator<(const Entry& o) const noexcept {
      if (ply != o.ply) return ply < o.ply;  // deepest first
      return seq < o.seq;                    // LIFO among equals
    }
  };

  void push(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.queued || n.finished) return;
    n.queued = true;
    queue_.push(Entry{n.ply, seq_++, id});
  }

  void make_child(std::uint32_t parent_id, int index, bool type1, bool spec) {
    Node& p = nodes_[parent_id];
    ERS_CHECK(p.child_nodes[index] == core::kNoNode);
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(
        Node(p.child_positions[index], parent_id, p.ply + 1, index, type1, spec));
    p.child_nodes[index] = id;
    p.generated += 1;
    push(id);
  }

  [[nodiscard]] Value beta_of(std::uint32_t id) const {
    const Node& n = nodes_[id];
    // MWF forgoes deep cutoffs: the bound comes from the parent alone.
    return n.parent == core::kNoNode ? kValueInf
                                     : negate(nodes_[n.parent].value);
  }

  [[nodiscard]] bool is_dead(std::uint32_t id) const {
    for (std::uint32_t a = nodes_[id].parent; a != core::kNoNode;
         a = nodes_[a].parent)
      if (nodes_[a].finished) return true;
    return false;
  }

  [[nodiscard]] bool is_complete(std::uint32_t id) const {
    const Node& n = nodes_[id];
    if (id != 0 && n.value >= beta_of(id)) return true;  // refuted
    return n.expanded &&
           n.generated == static_cast<int>(n.child_positions.size()) &&
           n.finished_children == n.generated;
  }

  void finish_and_combine(std::uint32_t id) {
    std::uint32_t cur = id;
    for (;;) {
      Node& n = nodes_[cur];
      n.finished = true;
      if (cur == 0) {
        done_ = true;
        return;
      }
      const std::uint32_t pid = n.parent;
      Node& p = nodes_[pid];
      if (p.finished) return;  // abandoned speculative subtree
      p.value = std::max(p.value, negate(n.value));
      p.finished_children += 1;
      if (is_complete(pid)) {
        cur = pid;
        continue;
      }
      // The parent lives on: release any speculative right child whose gate
      // this completion opened.
      maybe_release_right_child(pid);
      // A finished child is also the "left sibling" gate of the 2-node to
      // its right.
      if (n.child_index + 1 < static_cast<int>(p.child_nodes.size())) {
        const std::uint32_t right = p.child_nodes[n.child_index + 1];
        if (right != core::kNoNode && !nodes_[right].finished)
          maybe_release_right_child(right);
      }
      return;
    }
  }

  /// Gate check for 2-node `id` (paper §4.2): its next right child may start
  /// once the node's immediate left sibling has finished and all earlier
  /// children have finished.
  void maybe_release_right_child(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.type1 || !n.expanded || n.finished) return;
    if (n.generated >= static_cast<int>(n.child_positions.size())) return;
    if (n.finished_children < n.generated) return;  // earlier child running
    if (!left_sibling_finished(id)) return;
    make_child(id, n.generated, /*type1=*/false, /*spec=*/true);
  }

  [[nodiscard]] bool left_sibling_finished(std::uint32_t id) const {
    const Node& n = nodes_[id];
    if (n.parent == core::kNoNode || n.child_index == 0) return true;
    const std::uint32_t sib = nodes_[n.parent].child_nodes[n.child_index - 1];
    return sib != core::kNoNode && nodes_[sib].finished;
  }

  const G& game_;
  Config cfg_;
  std::deque<Node> nodes_;
  std::priority_queue<Entry> queue_;
  std::uint64_t seq_ = 0;
  bool done_ = false;
  MwfStats stats_;
};

}  // namespace ers::baselines
