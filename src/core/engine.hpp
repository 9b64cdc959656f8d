#pragma once
// The parallel ER problem-heap engine (paper §6).
//
// This class is the *scheduling state machine* only: it owns the shared
// search tree, the primary priority queue (scheduled work, deepest first)
// and the speculative priority queue (potential e-child selections, fewest
// e-children first, then shallower).  It keeps no clock of its own beyond
// lock accounting; executors drive it through a three-phase protocol:
//
//     acquire()  -> WorkItem        pick the next unit (Table 1 dispatch /
//                                   speculative promotion / serial subtree)
//     compute()  -> ComputeResult   the heavy, *pure* part of the unit —
//                                   child generation or a serial subtree
//                                   search (EngineConfig::unit_kernel).
//                                   Touches no engine state, so the thread
//                                   executor runs it with no engine lock
//                                   held and the simulator charges its
//                                   cost.
//     commit()                      apply the result: mutate the tree, run
//                                   the paper's combine procedure, apply the
//                                   Table 2 actions, refill the queues.
//
// Concurrency model (DESIGN.md §10): one problem heap behind one mutex, the
// paper's Sequent design.  Every acquire, commit and snapshot takes mu_;
// compute() takes no lock at all, which is where the parallelism lives.  A
// pop-time cutoff — a popped node whose tentative value already refutes it
// against its bound — is finished inline, under the acquire's own lock,
// before popping continues.  done() is the one lock-free read: an atomic
// the executors poll between units.
//
// Node storage is two-tier (DESIGN.md §15): the id-stable arena holds a
// small *hot* record per node (value, role, queue membership, parent/ply
// links) next to an id-parallel position arena, while the expansion
// payload — frozen child positions, child-node ids, ER phase bookkeeping —
// lives in a *cold* record attached once, inside the node's own commit,
// and kept until the engine dies.  Cold records are touched only under
// mu_, except compute()'s lock-free reads on a node's *own* in-flight unit,
// which see only fields written before that unit was acquired.
//
// acquire() and commit() are one lock section each, so a unit costs two, in
// the paper's order: the acquire that pops it and the commit that applies
// its result.  The engine counts the units in flight between the two, so
// it alone decides quiescence: an acquire that finds nothing runnable,
// nothing in flight and the root unfinished aborts as a stall.
//
// Work classification follows the paper exactly:
//   * nodes at ply >= serial_depth are leaves of the *parallel* tree and are
//     resolved by one serial search (the heavy unit): Figure 8's protocol
//     at the unit's root, the configured unit kernel below it;
//   * Table 1 governs what a node popped from the primary queue generates;
//   * the combine procedure backs values up until it reaches a node that
//     still has work below it and cannot be cut off; Table 2 (implemented in
//     reconsider()) decides what new work that node schedules;
//   * the speculative queue holds e-nodes that may select another e-child;
//     popping one promotes the node's best unpromoted child.
//
// Speculation is §5's three mechanisms, always on as in the paper: parallel
// refutation (dispatch_refutations), multiple e-children and early e-child
// choice (spec_eligible).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "gametree/game.hpp"
#include "obs/trace.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"
#include "search/ordering.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers::core {

template <Game G>
class Engine {
 public:
  using Position = typename G::Position;

  /// Result of the pure compute phase of a work unit.
  struct ComputeResult {
    /// kExpand / kSerialEvalFirst: generated (and ordered) child positions.
    std::vector<Position> child_positions;
    bool positions_computed = false;
    /// Serial units / kExpand on a terminal position: the node's value.
    Value value = 0;
    bool is_leaf = false;
    /// kSerialEvalFirst: the first child's evaluation already resolved the
    /// node (cutoff, single child, or leaf).
    bool is_done = false;
    /// Work performed, for engine totals and the simulator's cost model.
    SearchStats stats;
    /// Compute-phase duration the executor measured (virtual ns under the
    /// simulator, steady-clock ns under the thread runtime; 0 when the
    /// executor does not time units).  The waste ledger charges exactly
    /// this on cancellation, and commit_one mirrors it onto the unit's
    /// kUnitCommit trace event so ledger and trace reconcile bit for bit.
    std::uint64_t compute_ns = 0;
  };

  /// `root` is the root's search window, full by default.  Against it a
  /// root value <= root.alpha fails low (the true value is at most
  /// alpha), a value >= root.beta fails high (at least beta; the search
  /// stops as soon as the root reaches it), and a value inside is exact,
  /// as is best_root_position() — what aspiration_drive needs.
  Engine(const G&&, EngineConfig,
         Window = full_window()) = delete;  // the game must outlive the engine
  Engine(const G& game, EngineConfig cfg, Window root = full_window())
      : game_(game), cfg_(cfg), root_window_(root) {
    ERS_CHECK(cfg_.search_depth >= 0);
    ERS_CHECK(root_window_.is_open());
    cfg_.serial_depth = std::clamp(cfg_.serial_depth, 0, cfg_.search_depth);
    // Construction is single-threaded: seeding the root needs no lock.
    make_node(game_.root(), kNoNode, 0, NodeType::kENode, 0);
    push_primary(0);
  }

 private:
  struct PrimaryEntry {
    std::int32_t ply;
    std::uint64_t seq;
    std::uint32_t node;
    /// Deepest first; LIFO among equals, so a processor keeps descending
    /// into the subtree it just expanded (depth-first focus).  At P=1 this
    /// makes the schedule coincide with serial ER's recursion order.
    bool operator<(const PrimaryEntry& o) const noexcept {
      if (ply != o.ply) return ply < o.ply;
      return seq < o.seq;
    }
  };

  struct SpecEntry {
    /// The paper's rank (§6): fewer e-children first, then shallower, then
    /// the earlier push.  Both keys are read when the entry is pushed.
    std::int32_t e_children, ply;
    std::uint64_t seq;
    std::uint32_t node;
    bool operator<(const SpecEntry& o) const noexcept {
      if (e_children != o.e_children) return e_children > o.e_children;
      if (ply != o.ply) return ply > o.ply;
      return seq > o.seq;
    }
  };

  struct Node;        // defined with the storage arena below
  struct ColdRecord;  // expansion payload, defined with Node

 public:
  // --- executor protocol -------------------------------------------------

  /// Pop the next ready unit in one lock section; empty when nothing is
  /// runnable right now, or when a pop-time cutoff inside this call
  /// finished the root (so re-check done()).  The engine counts the units
  /// it has handed out, so an empty pop with none of them outstanding and
  /// the root unfinished is a stall — nothing could ever queue work again
  /// — and aborts with a dump of the unfinished nodes.  Every field that
  /// decision reads changes only under mu_, so it is exact on any schedule.
  [[nodiscard]] std::optional<WorkItem> acquire() {
    const auto t0 = Clock::now();
    std::unique_lock lk(mu_);
    const auto t1 = Clock::now();
    const std::optional<WorkItem> item = pop_ready();
    if (item) ++in_flight_;
    const bool stalled = !item && in_flight_ == 0 && !done();
    const auto t2 = Clock::now();
    count_lock_section(t0, t1, t2);
    lk.unlock();
    trace_lock_section(t0, t1, t2);
    if (stalled) fail_stalled();
    return item;
  }

  /// Apply one unit's result in one lock section.  The result is only read
  /// (child positions are copied into the node's cold record), so a caller
  /// may reuse its buffers for the next unit.
  void commit(const WorkItem& item, const ComputeResult& r) {
    const auto t0 = Clock::now();
    std::unique_lock lk(mu_);
    const auto t1 = Clock::now();
    commit_one(item, r);
    const auto t2 = Clock::now();
    count_lock_section(t0, t1, t2);
    lk.unlock();
    trace_lock_section(t0, t1, t2);
  }

  // --- queue observers ----------------------------------------------------

  /// Entries currently queued (primary + speculative).  An upper bound —
  /// lazily-invalidated stale entries are counted — which is all the thread
  /// runtime needs to size its wakeups to the work actually available.
  /// Takes the lock briefly (uncounted).
  [[nodiscard]] std::size_t queued_count() const {
    std::scoped_lock lk(mu_);
    return primary_.size() + spec_.size();
  }

 private:
  /// The popping pass (requires mu_): primary entries first, then
  /// speculative ones.  Stale and dead entries are dropped, and pop-time
  /// cutoffs are finished on the spot — their combine may queue new work,
  /// which the same pass then pops.
  std::optional<WorkItem> pop_ready() {
    while (!primary_.empty()) {
      const PrimaryEntry e = primary_.top();
      primary_.pop();
      Node& n = nodes_[e.node];
      if (!n.in_primary) continue;  // stale entry
      n.in_primary = false;
      if (n.finished || is_dead(e.node)) {
        ++stats_.dead_items_dropped;
        drop_dead(e.node);
        continue;
      }
      // Pop-time cutoff: the node's tentative value may already refute it
      // against the parent's *current* bound.
      if (n.parent != kNoNode && n.value >= beta_of(e.node)) {
        finish_at_pop(e.node, /*traced=*/true);
        continue;
      }
      if (n.ply >= cfg_.serial_depth) {
        const Window w = window_of(e.node);
        if (!w.is_open()) {
          // Empty window: an ancestor's bound already refutes the parent.
          // Finish the parent instead of searching nothing.
          finish_at_pop(n.parent, /*traced=*/false);
          continue;
        }
        n.in_flight = true;
        return WorkItem{e.node,  serial_kind(n), w, n.value, n.type, &n,
                        &positions_[e.node]};
      }
      n.in_flight = true;
      return WorkItem{e.node,     WorkKind::kExpand, full_window(),
                      -kValueInf, n.type,            &n,
                      &positions_[e.node]};
    }
    while (!spec_.empty()) {
      const SpecEntry e = spec_.top();
      spec_.pop();
      Node& n = nodes_[e.node];
      // Stale: the node finished while queued.  A finish clears on_spec,
      // so every entry past this line belongs to an unfinished node.
      if (!n.on_spec()) continue;
      n.set_on_spec(false);
      if (is_dead(e.node)) {
        // A dead speculative entry is a dropped queue item exactly like the
        // primary case above: the waste ledger and trace_report see it too
        // (EngineStats::dead_items_dropped counts primary entries only).
        drop_dead(e.node);
        continue;
      }
      if (!spec_eligible(e.node)) continue;
      return WorkItem{e.node,     WorkKind::kPromote, full_window(),
                      -kValueInf, n.type,             &n,
                      &positions_[e.node]};
    }
    return std::nullopt;
  }

  /// A queue entry whose node finished or died before it was popped
  /// (requires mu_): count it as a ledger cancel and trace it.
  void drop_dead(std::uint32_t id) {
    ++waste_.cancels;
    trace_instant(obs::EventKind::kSpecCancel, id, /*arg=*/0);
  }

  /// Finish `id` through a pop-time cutoff (requires mu_).  `traced`: the
  /// cutoff was against the node's own bound (a kSpecCancel with arg 1),
  /// not the empty-window finish of the popped node's parent (untraced).
  /// Both are live nodes: a finished or dead one was dropped before the
  /// cutoff check.
  void finish_at_pop(std::uint32_t id, bool traced) {
    ERS_DCHECK(!nodes_[id].finished && !is_dead(id));
    ++stats_.cutoffs_at_pop;
    if (traced) trace_instant(obs::EventKind::kSpecCancel, id, /*arg=*/1);
    finish_and_combine(id, WasteCause::kBoundChange);
  }

 public:
  /// Pure phase; safe to run concurrently with acquire/commit on other
  /// items.  Reads only fields frozen while the item is in flight.
  [[nodiscard]] ComputeResult compute(const WorkItem& item) const {
    ComputeResult out;
    compute_into(item, out);
    return out;
  }

  /// compute() into a caller-owned result, reusing its buffers: the child
  /// vector is cleared but keeps its capacity, so an executor that recycles
  /// ComputeResults across units makes the expansion path allocation-free
  /// at steady state (the commit side *copies* child positions into the
  /// node's cold record, so the buffer always comes back intact).
  void compute_into(const WorkItem& item, ComputeResult& out) const {
    // Use the pointers captured under the lock: indexing nodes_ or
    // positions_ here would race with commits growing the arenas on other
    // threads.
    const Node& n = *static_cast<const Node*>(item.node_ref);
    const Position& pos = *static_cast<const Position*>(item.pos_ref);
    out.child_positions.clear();
    out.positions_computed = false;
    out.value = 0;
    out.is_leaf = false;
    out.is_done = false;
    out.stats = {};
    out.compute_ns = 0;
    // The unit kernel's child buffers live per worker thread, so units
    // after the first on a thread search without touching the heap.
    static thread_local typename AlphaBetaSearcher<G>::PlyBuffers plies;
    AlphaBetaSearcher<G> kernel(game_, cfg_.search_depth, cfg_.ordering,
                                &plies);
    ErSerialSearcher<G> searcher(game_, cfg_.search_depth, cfg_.ordering);
    if (cfg_.unit_kernel == UnitKernel::kAlphaBeta)
      searcher.with_unit_kernel(&kernel);
    switch (item.kind) {
      case WorkKind::kPromote:
        break;  // nothing heavy
      case WorkKind::kSerialFull: {
        const SearchResult r = searcher.run_from(pos, n.ply, item.window);
        out.value = r.value;
        out.stats = r.stats;
        break;
      }
      case WorkKind::kSerialEvalFirst: {
        const auto r = searcher.eval_first_from(pos, n.ply, item.window,
                                                out.child_positions);
        out.value = r.value;
        out.is_done = r.done;
        out.stats = r.stats;
        break;
      }
      case WorkKind::kSerialRefuteRest: {
        // The frozen child order lives in the node's cold record, read
        // lock-free here: the Eval_first commit that attached it ran before
        // this unit was acquired, and nothing writes it again.
        const ColdRecord* c = n.cold;
        ERS_CHECK(c != nullptr);
        const SearchResult r = searcher.refute_rest_from(
            n.ply, item.window, item.tentative,
            std::span<const Position>(c->positions));
        out.value = r.value;
        out.stats = r.stats;
        break;
      }
      case WorkKind::kSerialRefute: {
        const SearchResult r = searcher.refute_from(pos, n.ply, item.window);
        out.value = r.value;
        out.stats = r.stats;
        break;
      }
      case WorkKind::kExpand: {
        if (n.expanded()) break;  // positions already known (promoted e-child)
        out.positions_computed = true;
        game_.generate_children(pos, out.child_positions);
        if (out.child_positions.empty()) {
          out.is_leaf = true;
          out.value = game_.evaluate(pos);
          out.stats.leaves_evaluated += 1;
          break;
        }
        out.stats.interior_expanded += 1;
        // Paper §7: children of e-nodes are never statically sorted.  Use
        // the role frozen at acquire: the live field may be re-typed by a
        // concurrent commit while this unit runs (WorkItem::ntype).
        if (item.ntype != NodeType::kENode && cfg_.ordering.should_sort(n.ply))
          sort_children_by_static_value(game_, out.child_positions, out.stats);
        break;
      }
    }
  }

  // --- run observers -------------------------------------------------------

  [[nodiscard]] bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }
  [[nodiscard]] Value root_value() const {
    std::scoped_lock lk(mu_);
    return nodes_[0].value;
  }

  /// Position of the root child that achieved the root value — the move to
  /// play.  Empty when the root was resolved inside a single serial unit
  /// (serial_depth == 0) or is a leaf.
  [[nodiscard]] std::optional<Position> best_root_position() const {
    std::scoped_lock lk(mu_);
    const std::uint32_t b = nodes_[0].best_child;
    if (b == kNoNode) return std::nullopt;
    return positions_[b];
  }

  /// Aggregate engine counters (a snapshot by value).
  [[nodiscard]] EngineStats stats() const {
    std::scoped_lock lk(mu_);
    return stats_;
  }

  /// Snapshot of the wasted-work attribution ledger (DESIGN.md §16).
  [[nodiscard]] EngineWasteStats waste_stats() const {
    std::scoped_lock lk(mu_);
    return waste_;
  }

  /// Snapshot of the lock accounting; the thread runtime folds this into
  /// its SchedulerStats totals.
  [[nodiscard]] EngineLockStats lock_stats() const {
    std::scoped_lock lk(mu_);
    return EngineLockStats{lock_acquisitions_, lock_wait_ns_, lock_hold_ns_};
  }

  /// Memory-occupancy snapshot of the two-tier node storage: hot and
  /// position arena bytes plus the cold records and their bytes.  Nothing
  /// is freed before the engine dies (see EngineMemStats), so peak_bytes is
  /// the current sum.
  [[nodiscard]] EngineMemStats mem_stats() const {
    std::scoped_lock lk(mu_);
    EngineMemStats m;
    m.live_nodes = nodes_.size();
    m.hot_bytes = nodes_.reserved_bytes();
    m.position_bytes = positions_.reserved_bytes();
    m.cold_allocated = cold_.size();
    m.cold_bytes = cold_bytes_;
    m.peak_bytes = m.hot_bytes + m.position_bytes + m.cold_bytes;
    return m;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// acquire()'s stall abort: dump every unfinished, non-dead node under a
  /// queue occupancy summary to stderr, then fail.  Takes the lock; the
  /// caller must not hold it.
  [[noreturn]] void fail_stalled() const {
    {
      std::scoped_lock lk(mu_);
      std::size_t unfinished = 0;
      for (std::uint32_t id = 0; id < nodes_.size(); ++id)
        if (!nodes_[id].finished && !is_dead(id)) ++unfinished;
      std::fprintf(stderr,
                   "Engine stall: no queued work, 0 units in flight, root "
                   "unfinished.  primary %zu spec %zu unfinished %zu\n",
                   primary_.size(), spec_.size(), unfinished);
      for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
        const Node& n = nodes_[id];
        if (n.finished || is_dead(id)) continue;
        std::fprintf(
            stderr,
            "node %u parent %d ply %d type %d value %d gen %d fin %d "
            "elder %d d %d e_ch %d partial %d expanded %d inprim %d "
            "inflight %d first_e %d e_eval %d\n",
            id, static_cast<int>(n.parent), n.ply, static_cast<int>(n.type),
            static_cast<int>(n.value), n.generated(), n.finished_children(),
            n.elder_done(), child_count(n), n.e_children(),
            n.partial() ? 1 : 0, n.expanded() ? 1 : 0, n.in_primary ? 1 : 0,
            n.in_flight ? 1 : 0, n.first_e_selected() ? 1 : 0,
            n.e_child_evaluated() ? 1 : 0);
      }
    }
    ERS_CHECK(!"problem-heap engine stalled");
  }

  // --- commit application (mu_ held) ---------------------------------------

  void commit_one(const WorkItem& item, const ComputeResult& r) {
    Node& n = nodes_[item.node];
    n.in_flight = false;
    --in_flight_;
    stats_.search += r.stats;
    ++stats_.units_processed;
    // Waste ledger (DESIGN.md §16).  A unit landing in a live subtree adds
    // itself to the uncharged-subtree tallies of the node and every
    // ancestor, so a future kill can charge the whole subtree in O(1).  A
    // unit landing after its subtree died is charged immediately — its
    // nearest cancelled ancestor already was — and stays out of the
    // running tallies, which only ever hold uncharged work.
    if (nearest_waste_root(item.node) == kNoNode) {
      for (std::uint32_t a = item.node; a != kNoNode; a = nodes_[a].parent) {
        sub_units_[a] += 1;
        sub_ns_[a] += r.compute_ns;
      }
    } else {
      waste_.units += 1;
      waste_.compute_ns += r.compute_ns;
    }
    // Commit record with the parent link: trace_report rebuilds the unit
    // dependency graph (and its critical path) from exactly these events.
    // The event carries the executor-measured compute duration, so the
    // trace-side waste reconciliation sums exactly what the ledger charged.
    trace_commit(item.node,
                 n.parent == kNoNode ? obs::kNoTraceNode : n.parent,
                 r.compute_ns);
    switch (item.kind) {
      case WorkKind::kPromote:
        commit_promotion(item.node);
        break;
      case WorkKind::kSerialFull:
      case WorkKind::kSerialRefuteRest:
      case WorkKind::kSerialRefute:
        ++stats_.serial_units;
        n.value = std::max<Value>(n.value, r.value);
        finish_and_combine(item.node, WasteCause::kSiblingResolution);
        break;
      case WorkKind::kSerialEvalFirst:
        commit_eval_first(item.node, r);
        break;
      case WorkKind::kExpand:
        commit_expand(item.node, r);
        break;
    }
  }

  // --- queue helpers (mu_ held, except the single-threaded ctor) -----------

  void push_primary(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.in_primary || n.in_flight || n.finished) return;
    n.in_primary = true;
    primary_.push(PrimaryEntry{n.ply, seq_++, id});
  }

  void push_spec(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.on_spec() || n.finished) return;
    checked_cold(n)->on_spec = true;  // spec-eligible nodes are expanded
    spec_.push(SpecEntry{n.e_children(), n.ply, seq_++, id});
  }

  // --- predicates ---------------------------------------------------------

  /// Which serial unit a cutover node needs, per its current role (see
  /// WorkKind).  A node with a tentative value from an earlier Eval_first
  /// unit continues with Refute_rest whether it was promoted to e-child or
  /// re-typed for refutation — exactly Figure 8's two halves.
  [[nodiscard]] WorkKind serial_kind(const Node& n) const {
    if (n.ply >= cfg_.search_depth) return WorkKind::kSerialFull;  // horizon
    if (n.partial()) return WorkKind::kSerialRefuteRest;
    switch (n.type) {
      case NodeType::kENode: return WorkKind::kSerialFull;
      case NodeType::kUndecided: return WorkKind::kSerialEvalFirst;
      case NodeType::kRNode: return WorkKind::kSerialRefute;
    }
    return WorkKind::kSerialFull;
  }

  /// The node's effective search window, folded down from the root window
  /// exactly as Figure 8 flips windows at each ply:
  ///     w(child) = ( -beta(parent), -max(alpha(parent), value(parent)) ).
  /// Using the whole ancestor chain (not just -parent.value) preserves the
  /// deep-cutoff information the serial recursion carries implicitly.
  [[nodiscard]] Window window_of(std::uint32_t id) const {
    // Collected on the stack: this runs on every combine-step cutoff check,
    // and search depths are tiny (the horizon bounds the path length).
    std::array<std::uint32_t, 64> path;  // id's ancestors, root last
    std::size_t depth = 0;
    for (std::uint32_t a = nodes_[id].parent; a != kNoNode; a = nodes_[a].parent) {
      ERS_CHECK(depth < path.size());
      path[depth++] = a;
    }
    Window w = root_window_;
    while (depth-- > 0) {
      const Value alpha = std::max<Value>(w.alpha, nodes_[path[depth]].value);
      w = Window{negate(w.beta), negate(alpha)};
    }
    return w;
  }

  [[nodiscard]] Value beta_of(std::uint32_t id) const {
    return window_of(id).beta;
  }

  /// A node is dead when some proper ancestor has finished (its subtree was
  /// abandoned: speculative loss).
  [[nodiscard]] bool is_dead(std::uint32_t id) const {
    for (std::uint32_t a = nodes_[id].parent; a != kNoNode;
         a = nodes_[a].parent)
      if (nodes_[a].finished) return true;
    return false;
  }

  [[nodiscard]] int child_count(const Node& n) const {
    return n.cold != nullptr ? static_cast<int>(n.cold->positions.size()) : 0;
  }

  /// Children that can still be promoted to e-child: dormant (not queued,
  /// not running), undecided, unfinished, with a tentative value.
  [[nodiscard]] bool is_promotion_candidate(std::uint32_t id) const {
    const Node& c = nodes_[id];
    return !c.finished && c.type == NodeType::kUndecided && c.elder_counted &&
           !c.in_primary && !c.in_flight;
  }

  [[nodiscard]] std::uint32_t best_promotion_candidate(const Node& p) const {
    std::uint32_t best = kNoNode;
    if (p.cold == nullptr) return best;
    for (const std::uint32_t c : p.cold->child_nodes) {
      if (c == kNoNode || !is_promotion_candidate(c)) continue;
      if (best == kNoNode || nodes_[c].value < nodes_[best].value) best = c;
    }
    return best;
  }

  [[nodiscard]] bool spec_eligible(std::uint32_t id) const {
    const Node& n = nodes_[id];
    if (n.type != NodeType::kENode || n.finished || !n.expanded()) return false;
    // Early e-child choice: all but one elder grandchild evaluated.
    if (n.elder_done() < child_count(n) - 1) return false;
    return best_promotion_candidate(n) != kNoNode;
  }

  /// Commit an Eval_first unit at a cutover node: store the tentative value
  /// and the frozen child order; the node either resolves immediately (done
  /// or cut off against the parent's current bound) or goes dormant awaiting
  /// promotion/re-typing, feeding the parent's elder-grandchild accounting.
  void commit_eval_first(std::uint32_t id, const ComputeResult& r) {
    Node& n = nodes_[id];
    ++stats_.serial_units;
    n.value = std::max<Value>(n.value, r.value);
    // Resolve-before-store: a node that is already done (or cut off against
    // the parent's current bound) never reads its frozen child order, so
    // the done check runs first and a cold record is attached only to
    // survivors — an immediately-resolved cutover node costs no record.
    // (Done-path semantics are unchanged: nothing on it consults the
    // positions, and no pushes happen either way.)
    if (r.is_done || n.value >= beta_of(id)) {
      finish_and_combine(id, WasteCause::kSiblingResolution);
      return;
    }
    attach_cold(id, r.child_positions);  // survivor: freeze the child order
    n.cold->partial = true;
    if (n.parent == kNoNode || nodes_[n.parent].finished) return;
    const std::uint32_t pid = n.parent;
    count_elder(pid, id);  // n now has a tentative value (Table 2 rows 4/5)
    // If the node was promoted or re-typed for refutation while this unit
    // was in flight, it must continue with a Refute_rest unit now — nothing
    // else will ever reschedule it.
    if (n.type != NodeType::kUndecided) push_primary(id);
    reconsider(pid);
  }

  // --- Table 1: expansion -------------------------------------------------

  void commit_expand(std::uint32_t id, const ComputeResult& r) {
    Node& n = nodes_[id];
    if (r.positions_computed) {
      if (r.is_leaf) {
        // Terminal position above the cutover: a true leaf of the game —
        // no expansion payload to store (finished nodes never have their
        // expansion state consulted).
        n.value = std::max<Value>(n.value, r.value);
        finish_and_combine(id, WasteCause::kSiblingResolution);
        return;
      }
      attach_cold(id, r.child_positions);
      n.cold->expanded = true;
    }
    ColdRecord* c = checked_cold(n);
    ERS_CHECK(c->expanded);
    switch (n.type) {
      case NodeType::kENode: {
        // Generate all (missing) children as undecided (Table 1 row 1).
        const bool e_child_done = c->child_nodes[0] != kNoNode &&
                                  nodes_[c->child_nodes[0]].finished;
        // Create in reverse index order: the primary queue is LIFO among
        // equals, so pops then visit the children left to right.
        for (int i = child_count(n) - 1; i >= 0; --i)
          if (c->child_nodes[i] == kNoNode)
            make_child(id, i, NodeType::kUndecided);
        if (e_child_done) {
          // A promoted e-child arrives with its first child — the elder
          // grandchild evaluated while this node was undecided — already
          // finished.  That child *is* its e-child, so Table 2 row 3
          // applies immediately: refute the remaining children rather than
          // running a second elder-grandchild sweep (this matches serial
          // ER, where the e-child is completed by Refute_rest).
          c->first_e_selected = true;
          if (c->e_children == 0) c->e_children = 1;
          c->e_child_evaluated = true;
          reconsider_e_node(id);
        }
        break;
      }
      case NodeType::kUndecided:
        // Elder-grandchild evaluation: first child only, as an e-node.
        if (c->child_nodes[0] == kNoNode) make_child(id, 0, NodeType::kENode);
        break;
      case NodeType::kRNode:
        if (c->generated == 0) {
          make_child(id, 0, NodeType::kENode);
        } else if (c->generated < child_count(n)) {
          // Refutation proceeds one child at a time (Table 1 row 4).
          make_child(id, c->generated, NodeType::kRNode);
        }
        break;
    }
  }

  void make_child(std::uint32_t parent_id, int index, NodeType type) {
    Node& p = nodes_[parent_id];
    ColdRecord* pc = checked_cold(p);
    ERS_CHECK(pc->child_nodes[index] == kNoNode);
    // Arena slots never move: growth never invalidates existing references.
    const std::uint32_t child_id =
        make_node(pc->positions[index], parent_id, p.ply + 1, type, index);
    pc->child_nodes[index] = child_id;
    pc->generated += 1;
    push_primary(child_id);
  }

  // --- speculative promotion ----------------------------------------------

  void commit_promotion(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.finished || !spec_eligible(id)) return;  // state moved on
    const std::uint32_t child = best_promotion_candidate(n);
    if (child == kNoNode) return;
    promote_to_e_child(id, child, /*mandatory=*/false);
    if (spec_eligible(id)) push_spec(id);  // paper: "E is returned to the queue"
  }

  void promote_to_e_child(std::uint32_t parent_id, std::uint32_t child_id,
                          bool mandatory) {
    Node& p = nodes_[parent_id];
    Node& c = nodes_[child_id];
    ERS_CHECK(c.type == NodeType::kUndecided && !c.finished);
    c.type = NodeType::kENode;
    ColdRecord* pc = checked_cold(p);  // promoting parents are expanded
    pc->e_children += 1;
    pc->first_e_selected = true;
    if (mandatory)
      ++stats_.promotions_mandatory;
    else
      ++stats_.promotions_speculative;
    trace_instant(obs::EventKind::kSpecSpawn, child_id, parent_id);
    push_primary(child_id);
  }

  // --- combine (paper §6) ---------------------------------------------------

  /// `cause` labels the kSpecCancel trace event of every subtree this
  /// finish (and its backup chain) kills: kBoundChange when the finish
  /// originated in a pop-time cutoff, kSiblingResolution when a committed
  /// result resolved the node.
  void finish_and_combine(std::uint32_t id, WasteCause cause) {
    std::uint32_t cur = id;
    for (;;) {
      Node& n = nodes_[cur];
      n.finished = true;
      n.set_on_spec(false);  // lazily invalidates any spec entry
      // The finish kills cur's unfinished children: charge their subtrees
      // to the waste ledger.  Their records stay; pop-time dropping
      // discards whatever work the dead subtree still queues.
      charge_killed_children(cur, cause);
      if (cur == 0) {
        done_.store(true, std::memory_order_release);
        return;
      }
      const std::uint32_t pid = n.parent;
      Node& p = nodes_[pid];
      if (p.finished) return;  // abandoned subtree; result discarded
      if (negate(n.value) > p.value) {
        p.value = negate(n.value);
        p.best_child = cur;  // strict raise: an exactly-evaluated child
      }
      ColdRecord* pc = checked_cold(p);  // a parent is always expanded
      pc->finished_children += 1;
      count_elder(pid, cur);  // cur is certainly evaluated-or-finished now
      if (n.type == NodeType::kENode && p.type == NodeType::kENode)
        pc->e_child_evaluated = true;
      if (is_node_complete(pid)) {
        cur = pid;  // keep backing up
        continue;
      }
      // Combine stops here: p still has live work.  p just gained (or
      // confirmed) a tentative value, which advances its own parent's
      // elder-grandchild accounting (Table 2 rows 4/5).
      const std::uint32_t gp = p.parent;
      const bool p_new_elder = gp != kNoNode && count_elder(gp, pid);
      reconsider(pid);
      if (p_new_elder && !nodes_[gp].finished) reconsider(gp);
      return;
    }
  }

  /// Mark `child` as contributing to p's elder-grandchild accounting (it has
  /// a tentative value or is finished).  Returns true the first time.
  bool count_elder(std::uint32_t parent_id, std::uint32_t child_id) {
    Node& c = nodes_[child_id];
    if (c.elder_counted) return false;
    c.elder_counted = true;
    checked_cold(nodes_[parent_id])->elder_done += 1;
    return true;
  }

  [[nodiscard]] bool is_node_complete(std::uint32_t id) const {
    const Node& n = nodes_[id];
    // Cut off (refuted), or at the root a fail high against its window.
    if (n.value >= beta_of(id)) return true;
    return n.expanded() && n.generated() == child_count(n) &&
           n.finished_children() == child_count(n);
  }

  /// Table 2: decide what new work `id` schedules after its state changed.
  void reconsider(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.finished) return;
    switch (n.type) {
      case NodeType::kUndecided:
        // Dormant: waits for its parent to promote or re-type it.
        return;
      case NodeType::kRNode:
        // A child combined and the node survives: schedule the next child
        // (Table 1 row 4 runs when it is popped).
        if (n.generated() < child_count(n) &&
            n.generated() == n.finished_children())
          push_primary(id);
        return;
      case NodeType::kENode:
        reconsider_e_node(id);
        return;
    }
  }

  void reconsider_e_node(std::uint32_t id) {
    Node& n = nodes_[id];
    if (!n.expanded()) return;  // not yet popped; Table 1 will handle it
    ColdRecord* c = checked_cold(n);
    const int d = child_count(n);
    // Table 2 row 2: mandatory first e-child selection once every elder
    // grandchild is evaluated.
    if (!c->first_e_selected && c->elder_done == d) {
      const std::uint32_t child = best_promotion_candidate(n);
      if (child != kNoNode) promote_to_e_child(id, child, /*mandatory=*/true);
    }
    // Table 2 row 3: once an e-child has been fully evaluated, refute the
    // remaining (undecided) children, all at once (parallel refutation).
    if (c->e_child_evaluated && !c->refutation_dispatched) {
      c->refutation_dispatched = true;
      dispatch_refutations(id);
    }
    // Table 2 rows 1/4: speculative queue eligibility.
    if (spec_eligible(id)) push_spec(id);
  }

  void dispatch_refutations(std::uint32_t id) {
    const ColdRecord* rec = checked_cold(nodes_[id]);  // only expanded e-nodes
    // Re-type in ascending tentative-value order (serial ER's refutation
    // order after its sort).  Reused scratch (dispatch never re-enters
    // itself): no per-dispatch allocation at steady state.
    std::vector<std::uint32_t>& undecided = scratch_undecided_;
    undecided.clear();
    for (const std::uint32_t c : rec->child_nodes) {
      if (c == kNoNode) continue;
      const Node& cn = nodes_[c];
      if (!cn.finished && cn.type == NodeType::kUndecided) undecided.push_back(c);
    }
    std::stable_sort(undecided.begin(), undecided.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return nodes_[a].value < nodes_[b].value;
                     });
    // Dispatch every candidate.  Push in reverse of the tentative order so
    // LIFO pops refute the most promising first.
    for (auto it = undecided.rbegin(); it != undecided.rend(); ++it) {
      Node& cn = nodes_[*it];
      cn.type = NodeType::kRNode;
      // A child that is queued or running continues its current flow; a
      // dormant one needs a fresh pop to make progress.
      if (!cn.in_primary && !cn.in_flight) push_primary(*it);
    }
  }

  // --- tracing & timing hooks ----------------------------------------------

  /// Engine-side trace hook (the session's engine tracer, written under
  /// mu_, so by one thread at a time); a no-op without a session.  The
  /// single-threaded simulator re-points the engine tracer to its current
  /// virtual worker before driving the engine.
  void trace_instant(obs::EventKind kind, std::uint32_t node,
                     std::uint32_t arg) {
    if (cfg_.trace == nullptr) return;
    cfg_.trace->engine_tracer().instant(kind, cfg_.trace->now_ns(), node,
                                        arg);
  }

  /// kUnitCommit with the executor-measured compute duration in `dur`
  /// (trace-side waste reconciliation sums these; see commit_one).
  void trace_commit(std::uint32_t node, std::uint32_t arg, std::uint64_t dur) {
    if (cfg_.trace == nullptr) return;
    cfg_.trace->engine_tracer().record(obs::EventKind::kUnitCommit,
                                       cfg_.trace->now_ns(), dur, node, arg);
  }

  /// Count one lock section: t0 = asked for mu_, t1 = got it, t2 = done
  /// (caller still holds mu_).
  void count_lock_section(Clock::time_point t0, Clock::time_point t1,
                          Clock::time_point t2) noexcept {
    ++lock_acquisitions_;
    lock_wait_ns_ += delta_ns(t0, t1);
    lock_hold_ns_ += delta_ns(t1, t2);
  }

  /// Counted lock sections mirror their (wait, hold) nanoseconds onto the
  /// calling worker's trace ring from the *same* clock readings the
  /// counters use, so traced span totals equal folded stats totals exactly
  /// (tests/obs).  Virtual-clock sessions suppress the spans: the simulator
  /// models lock time in its cost model, and steady-clock spans would
  /// corrupt its virtual timeline.
  void trace_lock_section(Clock::time_point t0, Clock::time_point t1,
                          Clock::time_point t2) {
    if (cfg_.trace == nullptr || cfg_.trace->virtual_clock()) return;
    obs::Tracer* t = obs::TraceSession::thread_tracer();
    if (t == nullptr) return;
    t->span(obs::EventKind::kLockWaitSpan, cfg_.trace->to_ns(t0),
            cfg_.trace->to_ns(t1));
    t->span(obs::EventKind::kLockHoldSpan, cfg_.trace->to_ns(t1),
            cfg_.trace->to_ns(t2));
  }

  [[nodiscard]] static std::uint64_t delta_ns(Clock::time_point a,
                                              Clock::time_point b) noexcept {
    return b <= a ? 0
                  : static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            b - a)
                            .count());
  }

  // --- node storage (two-tier; DESIGN.md §15) -------------------------------

  /// Cold expansion record: everything a node needs from its expansion on
  /// — the frozen child positions, the child-node ids, and the ER phase
  /// bookkeeping.  Attached once, inside the node's own commit
  /// (attach_cold), and kept in cold_ until the engine dies.  Touched only
  /// under mu_, except compute()'s lock-free reads on the node's *own*
  /// in-flight unit (kExpand's expanded check, kSerialRefuteRest's frozen
  /// child order), which read only fields written before that unit was
  /// acquired.
  struct ColdRecord {
    std::vector<Position> positions;         ///< the frozen child order
    std::vector<std::uint32_t> child_nodes;  ///< kNoNode until instantiated
    bool expanded = false;        ///< child positions computed (Table 1 ran)
    bool partial = false;         ///< cutover node: Eval_first completed
    /// A live entry exists in the spec queue.  A node has at most one:
    /// push_spec returns early while this is set, only a pop of that entry
    /// or the node's finish clears it, and a finished node is never pushed.
    bool on_spec = false;
    bool first_e_selected = false;
    bool e_child_evaluated = false;  ///< some promoted e-child has finished
    bool refutation_dispatched = false;
    std::int32_t generated = 0;  ///< children instantiated as nodes
    std::int32_t finished_children = 0;
    std::int32_t elder_done = 0;  ///< children with tentative value / finished
    std::int32_t e_children = 0;  ///< children promoted to e-node
  };

  /// Hot per-node record: at most one cache line.  Everything the
  /// scheduling predicates touch (window folds, dead checks, promotion
  /// candidacy, pop filtering) lives here; the expansion payload hangs off
  /// `cold` (ColdRecord above).  The game position lives in the engine's
  /// id-parallel position arena, not in the node.  Every field is guarded
  /// by mu_, except the immutable links and the compute phase's reads of
  /// its own in-flight node's `cold`.
  struct Node {
    Node(std::uint32_t parent_id, int ply_at, NodeType ty,
         int index_in_parent)
        : parent(parent_id),
          ply(ply_at),
          child_index(index_in_parent),
          type(ty) {}

    /// Cold expansion record — null until the node's own expand or
    /// Eval_first commit attaches it, then never changed, so compute()'s
    /// lock-free read for the node's in-flight unit sees what was set
    /// before that unit was acquired.
    ColdRecord* cold = nullptr;

    std::uint32_t parent;      ///< immutable
    std::int32_t ply;          ///< immutable
    std::int32_t child_index;  ///< immutable; index within the parent's child list
    std::uint32_t best_child = kNoNode;  ///< child that last raised value

    Value value = -kValueInf;  ///< monotone tentative value, own perspective
    NodeType type;
    bool finished = false;       ///< subtree resolved (evaluated or refuted)
    bool in_primary = false;     ///< a live entry exists in the primary queue
    bool in_flight = false;      ///< a worker holds this node
    bool elder_counted = false;  ///< contributed to parent's elder_done

    // Cold-state readers, tolerant of a node not yet expanded (null
    // record): they answer as a node with no expansion state.
    [[nodiscard]] bool expanded() const noexcept {
      return cold != nullptr && cold->expanded;
    }
    [[nodiscard]] bool partial() const noexcept {
      return cold != nullptr && cold->partial;
    }
    [[nodiscard]] bool on_spec() const noexcept {
      return cold != nullptr && cold->on_spec;
    }
    [[nodiscard]] bool first_e_selected() const noexcept {
      return cold != nullptr && cold->first_e_selected;
    }
    [[nodiscard]] bool e_child_evaluated() const noexcept {
      return cold != nullptr && cold->e_child_evaluated;
    }
    [[nodiscard]] std::int32_t generated() const noexcept {
      return cold != nullptr ? cold->generated : 0;
    }
    [[nodiscard]] std::int32_t finished_children() const noexcept {
      return cold != nullptr ? cold->finished_children : 0;
    }
    [[nodiscard]] std::int32_t elder_done() const noexcept {
      return cold != nullptr ? cold->elder_done : 0;
    }
    [[nodiscard]] std::int32_t e_children() const noexcept {
      return cold != nullptr ? cold->e_children : 0;
    }
    /// A finish clears spec membership on any node, expanded or not.
    void set_on_spec(bool v) noexcept {
      if (cold != nullptr) cold->on_spec = v;
    }
  };
  static_assert(sizeof(Node) <= 64,
                "hot node record must fit one cache line — move anything "
                "bigger into ColdRecord");

  /// The node's cold record, which must exist: the accessor for commit
  /// paths only reachable on expanded nodes (a parent, a spec-eligible or
  /// dispatching e-node).
  [[nodiscard]] static ColdRecord* checked_cold(const Node& n) {
    ERS_DCHECK(n.cold != nullptr);
    return n.cold;
  }

  /// Chunked stable-address storage, shared by the hot node records and the
  /// id-parallel position arena.  Appends happen under mu_ (or in the
  /// single-threaded constructor); the compute phase reads the slots of
  /// its own in-flight node through pointers captured under mu_, so a slot
  /// must never move.  A chunk never moves once allocated; the
  /// chunk-pointer table may reallocate as it grows, which is safe because
  /// it is indexed only under mu_ or on a single thread.  Slots are
  /// constructed in place.
  template <typename T>
  class StableArena {
   public:
    StableArena() = default;
    ~StableArena() {
      const std::size_t n = size_.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < n; ++i) slot(i)->~T();
    }
    StableArena(const StableArena&) = delete;
    StableArena& operator=(const StableArena&) = delete;

    template <typename... Args>
    std::uint32_t emplace(Args&&... args) {
      const std::size_t i = size_.load(std::memory_order_relaxed);
      ERS_CHECK(i < kNoNode);
      if ((i & (kChunkSlots - 1)) == 0)
        chunks_.push_back(std::make_unique<Chunk>());
      ::new (static_cast<void*>(slot(i))) T(std::forward<Args>(args)...);
      size_.store(i + 1, std::memory_order_relaxed);
      return static_cast<std::uint32_t>(i);
    }

    [[nodiscard]] T& operator[](std::size_t i) const { return *slot(i); }
    [[nodiscard]] std::size_t size() const noexcept {
      return size_.load(std::memory_order_relaxed);
    }
    /// Chunk bytes reserved so far — monotone (chunks are never freed
    /// before destruction), so current == peak.
    [[nodiscard]] std::uint64_t reserved_bytes() const noexcept {
      const std::size_t n = size_.load(std::memory_order_relaxed);
      const std::size_t chunks = (n + kChunkSlots - 1) >> kChunkShift;
      return static_cast<std::uint64_t>(chunks) * sizeof(Chunk);
    }

   private:
    static constexpr std::size_t kChunkShift = 10;  // 1024 slots per chunk
    static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;
    struct Chunk {
      alignas(T) std::byte raw[sizeof(T) * kChunkSlots];
    };
    [[nodiscard]] T* slot(std::size_t i) const {
      return reinterpret_cast<T*>(chunks_[i >> kChunkShift]->raw) +
             (i & (kChunkSlots - 1));
    }
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::atomic<std::size_t> size_{0};
  };

  /// Create a node: the hot record and its id-parallel position slot, in
  /// sync (the two arenas always have equal size).
  std::uint32_t make_node(const Position& pos, std::uint32_t parent, int ply,
                          NodeType ty, int index_in_parent) {
    const std::uint32_t id = nodes_.emplace(parent, ply, ty, index_in_parent);
    const std::uint32_t pid = positions_.emplace(pos);
    ERS_CHECK(pid == id);
    // Waste-ledger side arrays stay id-parallel with the arenas.
    sub_units_.push_back(0);
    sub_ns_.push_back(0);
    waste_state_.push_back(0);
    return id;
  }

  // --- cold records and the waste charge at kill points ---------------------

  /// Freeze `kids` as `id`'s child order in a fresh cold record.  The
  /// positions are *copied* — the compute buffer keeps its capacity and is
  /// recycled by the executor (compute_into).
  void attach_cold(std::uint32_t id, const std::vector<Position>& kids) {
    Node& n = nodes_[id];
    ERS_DCHECK(n.cold == nullptr);
    ColdRecord& c = cold_.emplace_back();
    c.positions.assign(kids.begin(), kids.end());
    c.child_nodes.assign(kids.size(), kNoNode);
    cold_bytes_ += sizeof(ColdRecord) +
                   kids.size() * (sizeof(Position) + sizeof(std::uint32_t));
    n.cold = &c;
  }

  /// Waste ledger (DESIGN.md §16): each unfinished child a freshly finished
  /// node kills is a cancelled subtree root, charged here — once — with
  /// its accumulated uncharged subtree work and marked in waste_state_ so
  /// post-death commits below it are charged as they land.  The charge
  /// is skipped entirely when the finishing node already lies inside a
  /// cancelled subtree (nearest_waste_root hit): everything below was
  /// attributed when that subtree died.  Charging a child subtracts its
  /// tallies from every ancestor's, so a later kill higher up charges
  /// strictly never-before-charged work — no unit is attributed twice.
  void charge_killed_children(std::uint32_t id, WasteCause cause) {
    const ColdRecord* c = nodes_[id].cold;
    if (c == nullptr || nearest_waste_root(id) != kNoNode) return;
    for (const std::uint32_t ch : c->child_nodes)
      if (ch != kNoNode && !nodes_[ch].finished && waste_state_[ch] == 0)
        charge_waste(ch, cause);
  }

  /// Charge cancelled subtree root `ch` to the ledger and mark it.  The
  /// matching trace event is kSpecCancel with arg = cause + 2 (2 = bound
  /// change, 3 = sibling resolution; the acquire-side drop args 0/1 come
  /// first) — trace_report's speculation-waste section reconciles against
  /// exactly these.
  void charge_waste(std::uint32_t ch, WasteCause cause) {
    const std::uint64_t u = sub_units_[ch];
    const std::uint64_t ns = sub_ns_[ch];
    waste_.cancels += 1;
    waste_.units += u;
    waste_.compute_ns += ns;
    waste_state_[ch] = 1;
    // The subtree's work is now attributed; remove it from every ancestor's
    // uncharged tally so an enclosing kill cannot charge it again.
    for (std::uint32_t a = nodes_[ch].parent; a != kNoNode;
         a = nodes_[a].parent) {
      sub_units_[a] -= u;
      sub_ns_[a] -= ns;
    }
    trace_instant(obs::EventKind::kSpecCancel, ch,
                  static_cast<std::uint32_t>(cause) + 2);
  }

  /// Deepest cancelled-subtree root on `id`'s ancestor chain (self
  /// included), or kNoNode when the node's subtree is live.  Every dead
  /// node has one: the first kill on any root-to-node path marked the
  /// boundary child it crossed.
  [[nodiscard]] std::uint32_t nearest_waste_root(std::uint32_t id) const {
    for (std::uint32_t a = id; a != kNoNode; a = nodes_[a].parent)
      if (waste_state_[a] != 0) return a;
    return kNoNode;
  }

  // --- members --------------------------------------------------------------
  //
  // Everything below except done_ is guarded by mu_ (the constructor runs
  // single-threaded).

  const G& game_;
  EngineConfig cfg_;
  const Window root_window_;
  StableArena<Node> nodes_;  ///< stable slots: children are created while
                             ///< parent references are live
  /// Id-parallel position arena: positions_[id] is node id's game position.
  /// best_root_position() reads the winning child after the search and
  /// compute() reads in-flight positions lock-free through stable pointers.
  StableArena<Position> positions_;
  /// Cold records (Node::cold points in): a deque never moves an element
  /// it already holds, and every record lives until the engine dies.
  std::deque<ColdRecord> cold_;
  std::uint64_t cold_bytes_ = 0;  ///< records plus their child arrays
  /// The problem heap (paper §6).
  std::priority_queue<PrimaryEntry> primary_;
  std::priority_queue<SpecEntry> spec_;
  /// Push sequence for the LIFO/FIFO tiebreaks.
  std::uint64_t seq_ = 0;
  /// Units acquired and not yet committed (acquire()'s stall check).
  std::uint32_t in_flight_ = 0;
  EngineStats stats_;
  /// Wasted-work attribution ledger (DESIGN.md §16).
  EngineWasteStats waste_;
  /// Id-parallel ledger side arrays: per-node *uncharged* committed
  /// subtree work, and the cancelled-subtree mark (1 = a charged subtree
  /// root, else 0).
  std::vector<std::uint64_t> sub_units_;
  std::vector<std::uint64_t> sub_ns_;
  std::vector<std::uint8_t> waste_state_;
  /// Counted lock sections (acquires and commits).
  std::uint64_t lock_acquisitions_ = 0;
  std::uint64_t lock_wait_ns_ = 0;
  std::uint64_t lock_hold_ns_ = 0;
  /// dispatch_refutations' undecided-children list: reused across commits
  /// so refutation dispatch never allocates.
  std::vector<std::uint32_t> scratch_undecided_;
  /// Set when the root finishes; executors poll it without the lock.
  std::atomic<bool> done_{false};
  /// The engine's one lock.
  mutable std::mutex mu_;
};

}  // namespace ers::core
