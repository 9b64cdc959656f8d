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
// lives in a *cold* record allocated from a slab at expansion and
// reclaimed (through size-class freelists) when the node finishes or its
// subtree dies.  Cold records are touched only under mu_, except the
// lock-free compute-phase reads on a node's *own* in-flight unit, which the
// reclaimer's !in_flight guard keeps safe; commit_one releases the record
// of a unit whose node died in flight once the unit lands.
//
// acquire() and commit() are one lock section each, so a unit costs two, in
// the paper's order: the acquire that pops it and the commit that applies
// its result.
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

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
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
#include "search/table_hooks.hpp"
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

  Engine(const G&&, EngineConfig) = delete;  // the game must outlive the engine
  Engine(const G& game, EngineConfig cfg) : game_(game), cfg_(cfg) {
    ERS_CHECK(cfg_.search_depth >= 0);
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
    /// Policy-dependent ranking keys, smaller = scheduled sooner (see
    /// SpecRankPolicy and spec_keys_for).
    std::int64_t key1;
    std::int64_t key2;
    std::uint64_t seq;
    std::uint32_t node;
    std::uint64_t spec_seq;
    bool operator<(const SpecEntry& o) const noexcept {
      if (key1 != o.key1) return key1 > o.key1;
      if (key2 != o.key2) return key2 > o.key2;
      return seq > o.seq;
    }
  };

  /// Slab allocator for cold expansion records (ColdRecord, defined with
  /// the node storage below).  No internal lock: every call happens under
  /// mu_ — allocation inside a commit, reclamation at finish/dead-drop
  /// time.  Blocks are grouped into power-of-two child-capacity size
  /// classes and recycled through per-class freelists, so steady-state
  /// expansion after warmup performs no heap allocation; chunk memory is
  /// never returned to the OS, which keeps every block address stable for
  /// the magic-word poisoning reclaim writes (use-after-reclaim detection,
  /// ERS_DCHECKed in checked_cold).
  class ColdSlab {
   public:
    ColdSlab() = default;
    ColdSlab(const ColdSlab&) = delete;
    ColdSlab& operator=(const ColdSlab&) = delete;

    static constexpr int kClasses = 8;  ///< capacities 1, 2, 4, ..., 128

    /// A block for class `cls` (block_bytes = the class's fixed size, a
    /// multiple of 16): freelist head if one is free, else carved from the
    /// current chunk's bump pointer.
    [[nodiscard]] void* take(int cls, std::size_t block_bytes) {
      if (void* p = free_[static_cast<std::size_t>(cls)]; p != nullptr) {
        free_[static_cast<std::size_t>(cls)] = next_of(p);
        return p;
      }
      if (static_cast<std::size_t>(chunk_end_ - bump_) < block_bytes)
        new_chunk(block_bytes);
      void* p = bump_;
      bump_ += block_bytes;
      return p;
    }

    /// Return a block to its class freelist.  The link lives at byte
    /// offset 8, leaving the record's leading magic word intact as the
    /// reclaim poison (ColdRecord::kDeadMagic).
    void put(int cls, void* p) {
      next_of(p) = free_[static_cast<std::size_t>(cls)];
      free_[static_cast<std::size_t>(cls)] = p;
    }

    /// Bytes of chunk memory reserved.  Monotone — freelists recycle
    /// *inside* chunks and chunks live until the engine dies — so the
    /// current value is also the peak.
    [[nodiscard]] std::uint64_t reserved_bytes() const noexcept {
      return reserved_;
    }

   private:
    static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;  // 64 KiB

    [[nodiscard]] static void*& next_of(void* p) noexcept {
      return *reinterpret_cast<void**>(static_cast<std::byte*>(p) + 8);
    }

    void new_chunk(std::size_t min_bytes) {
      const std::size_t n = std::max(kChunkBytes, min_bytes);
      chunks_.push_back(std::make_unique<std::byte[]>(n));
      bump_ = chunks_.back().get();
      chunk_end_ = bump_ + n;
      reserved_ += n;
    }

    std::array<void*, kClasses> free_{};
    std::byte* bump_ = nullptr;
    std::byte* chunk_end_ = nullptr;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::uint64_t reserved_ = 0;
  };

  struct Node;        // defined with the storage arena below
  struct ColdRecord;  // slab-resident expansion payload, defined with Node

 public:
  // --- executor protocol -------------------------------------------------

  /// Pop the next ready unit in one lock section; empty when nothing is
  /// runnable right now.
  [[nodiscard]] std::optional<WorkItem> acquire() {
    const auto t0 = Clock::now();
    std::unique_lock lk(mu_);
    const auto t1 = Clock::now();
    const std::optional<WorkItem> item = pop_ready();
    const auto t2 = Clock::now();
    count_lock_section(t0, t1, t2);
    lk.unlock();
    trace_lock_section(t0, t1, t2);
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
      if (!n.on_spec() || e.spec_seq != n.spec_seq()) continue;  // stale
      n.set_on_spec(false);
      if (n.finished || is_dead(e.node)) {
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
  /// (requires mu_): charge the ledger's kDeadDrop cancel row, trace it,
  /// and return the node's own expansion payload.  Deeper dead descendants
  /// are reclaimed lazily, at their own pops and commits.
  void drop_dead(std::uint32_t id) {
    waste_.cancels[static_cast<std::size_t>(WasteCause::kDeadDrop)]
                  [waste_band_of(static_cast<std::uint32_t>(nodes_[id].ply))] +=
        1;
    trace_instant(obs::EventKind::kSpecCancel, id, /*arg=*/0);
    reclaim_cold(id);
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
    return compute(item, cfg_.shared_table);
  }

  /// As above, with an explicit transposition table overriding the
  /// configured one (the thread runtime's per-worker-table mode hands each
  /// worker its private table).  The table is only read/written here, never
  /// by acquire/commit, so concurrent compute calls share it freely.
  [[nodiscard]] ComputeResult compute(const WorkItem& item,
                                      ConcurrentTranspositionTable* tt) const {
    ComputeResult out;
    compute_into(item, tt, out);
    return out;
  }

  /// compute() into a caller-owned result, reusing its buffers: the child
  /// vector is cleared but keeps its capacity, so an executor that recycles
  /// ComputeResults across units makes the expansion path allocation-free
  /// at steady state (the commit side *copies* child positions into the
  /// cold slab, so the buffer always comes back intact).
  void compute_into(const WorkItem& item, ComputeResult& out) const {
    compute_into(item, cfg_.shared_table, out);
  }

  void compute_into(const WorkItem& item, ConcurrentTranspositionTable* tt,
                    ComputeResult& out) const {
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
    kernel.with_shared_table(tt).with_ordering_tables(cfg_.order_tables);
    ErSerialSearcher<G> searcher(game_, cfg_.search_depth, cfg_.ordering);
    searcher.with_shared_table(tt).with_ordering_tables(cfg_.order_tables);
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
        // lock-free here: the node is in flight for exactly this unit, and
        // reclaim_cold never touches an in-flight node's record.
        const ColdRecord* c = n.cold;
        ERS_CHECK(c != nullptr);
        const SearchResult r = searcher.refute_rest_from(
            pos, n.ply, item.window, item.tentative,
            std::span<const Position>(c->positions(), c->count));
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
        std::uint16_t order_hint = 0;
        if constexpr (HashedGame<G>) {
          // An exact entry covering the full remaining depth resolves the
          // node without expanding its subtree — this is how one worker's
          // finished subtree short-circuits another's parallel-tree node.
          if (tt != nullptr) {
            ++out.stats.tt_probes;
            TtHit h;
            if (tt->probe(pos.tt_key(), h)) {
              // Any validated hit carries the stored best-move
              // fingerprint, reused below to front the TT move.
              order_hint = h.move_hint;
              if (h.depth >= cfg_.search_depth - n.ply &&
                  h.bound == BoundKind::kExact) {
                ++out.stats.tt_hits;
                out.positions_computed = true;
                out.is_leaf = true;
                out.value = h.value;
                break;
              }
            }
          }
        }
        out.positions_computed = true;
        game_.generate_children(pos, out.child_positions);
        if (out.child_positions.empty()) {
          out.is_leaf = true;
          out.value = game_.evaluate(pos);
          out.stats.leaves_evaluated += 1;
          if constexpr (HashedGame<G>) {
            if (tt != nullptr) {
              tt->store(pos.tt_key(), out.value, cfg_.search_depth - n.ply,
                        BoundKind::kExact);
              ++out.stats.tt_stores;
            }
          }
          break;
        }
        out.stats.interior_expanded += 1;
        // Paper §7: children of e-nodes are never statically sorted.  Use
        // the role frozen at acquire: the live field may be re-typed by a
        // concurrent commit while this unit runs (WorkItem::ntype).  With
        // shared ordering tables attached the sort additionally fronts
        // the TT move and killers and breaks ties by history credit —
        // with empty tables this reduces to the identical static
        // permutation (see sort_children_ordered).
        TableHooks<G>{tt, cfg_.order_tables}.order(
            game_, out.child_positions, n.ply + 1,
            item.ntype != NodeType::kENode && cfg_.ordering.should_sort(n.ply),
            order_hint, out.stats);
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
    return positions_[b];  // the position arena is never reclaimed
  }

  /// Aggregate engine counters (a snapshot by value).
  [[nodiscard]] EngineStats stats() const {
    std::scoped_lock lk(mu_);
    return stats_;
  }

  /// Snapshot of the wasted-work attribution ledger (DESIGN.md §16).
  /// Cheap enough for the sampler to call every tick.
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

  /// Memory-occupancy snapshot of the two-tier node storage: hot/position
  /// arena bytes plus the cold-record counters and slab bytes (heap-class
  /// records — more than 128 children — count in cold_live but not
  /// slab_bytes).  Every total is monotone (see EngineMemStats), so
  /// peak_bytes is the current reserved sum.
  [[nodiscard]] EngineMemStats mem_stats() const {
    std::scoped_lock lk(mu_);
    EngineMemStats m;
    m.live_nodes = nodes_.size();
    m.hot_bytes = nodes_.reserved_bytes();
    m.position_bytes = positions_.reserved_bytes();
    m.cold_allocated = cold_allocated_;
    m.cold_live = cold_live_;
    m.cold_reclaimed = cold_reclaimed_;
    m.slab_bytes = slab_.reserved_bytes();
    m.peak_bytes = m.hot_bytes + m.position_bytes + m.slab_bytes;
    return m;
  }

  /// Test hooks for the reclamation protocol (tests/core/engine_test.cpp).
  /// debug_cold_ptr returns the node's current cold record — null before
  /// expansion and again after reclamation; debug_assert_cold_live
  /// re-checks a previously captured pointer's magic word, tripping the
  /// same ERS_DCHECK the engine's own checked_cold accessor uses (the
  /// use-after-reclaim death test drives exactly this path — reclaimed
  /// blocks are poisoned, never unmapped, so the read itself is safe).
  [[nodiscard]] const void* debug_cold_ptr(std::uint32_t id) const {
    std::scoped_lock lk(mu_);
    return nodes_[id].cold;
  }
  static void debug_assert_cold_live(const void* rec) {
    ERS_DCHECK(rec != nullptr &&
               static_cast<const ColdRecord*>(rec)->magic ==
                   ColdRecord::kLiveMagic);
  }

  /// True if no work is queued.  An executor observing has_queued_work() ==
  /// false, done() == false and no in-flight items has found a scheduling
  /// bug.
  [[nodiscard]] bool has_queued_work() const {
    std::scoped_lock lk(mu_);
    return !primary_.empty() || !spec_.empty();
  }

  /// Diagnostic dump of all unfinished, non-dead nodes under a queue
  /// occupancy summary (used by the executors' stall reports; see
  /// tests/core/engine_test.cpp).  Takes the lock; callers must not hold
  /// it.
  void debug_dump_unfinished(std::FILE* out) const {
    std::scoped_lock lk(mu_);
    std::size_t unfinished = 0;
    for (std::uint32_t id = 0; id < nodes_.size(); ++id)
      if (!nodes_[id].finished && !is_dead(id)) ++unfinished;
    std::fprintf(out, "primary %zu spec %zu unfinished %zu\n",
                 primary_.size(), spec_.size(), unfinished);
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.finished || is_dead(id)) continue;
      std::fprintf(
          out,
          "node %u parent %d ply %d type %d value %d gen %d fin %d "
          "elder %d d %d e_ch %d partial %d expanded %d inprim %d inflight %d "
          "first_e %d e_eval %d seqref %d\n",
          id, static_cast<int>(n.parent), n.ply, static_cast<int>(n.type),
          static_cast<int>(n.value), n.generated(), n.finished_children(),
          n.elder_done(), child_count(n), n.e_children(),
          n.partial() ? 1 : 0, n.expanded() ? 1 : 0, n.in_primary ? 1 : 0,
          n.in_flight ? 1 : 0, n.first_e_selected() ? 1 : 0,
          n.e_child_evaluated() ? 1 : 0, static_cast<int>(n.seq_refuting()));
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  // --- commit application (mu_ held) ---------------------------------------

  void commit_one(const WorkItem& item, const ComputeResult& r) {
    Node& n = nodes_[item.node];
    n.in_flight = false;
    stats_.search += r.stats;
    ++stats_.units_processed;
    // Waste ledger (DESIGN.md §16).  A unit landing in a live subtree adds
    // itself to the uncharged-subtree tallies of the node and every
    // ancestor, so a future kill can charge the whole subtree in O(1).  A
    // unit landing after its subtree died is charged immediately to the
    // (cause, band) cell of the nearest cancelled subtree root — and stays
    // out of the running tallies, which only ever hold uncharged work.
    const std::uint32_t wr = nearest_waste_root(item.node);
    if (wr == kNoNode) {
      for (std::uint32_t a = item.node; a != kNoNode; a = nodes_[a].parent) {
        sub_units_[a] += 1;
        sub_ns_[a] += r.compute_ns;
      }
    } else {
      const auto ci = static_cast<std::size_t>(waste_state_[wr] - 1);
      const std::size_t b = waste_band_of(
          static_cast<std::uint32_t>(nodes_[wr].ply));
      waste_.units[ci][b] += 1;
      waste_.compute_ns[ci][b] += r.compute_ns;
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
    // A node that finished or died while this unit was in flight kept its
    // cold record alive through the flight (compute may read it lock-free);
    // release it now that the unit has landed.  Nodes finished by this very
    // commit already reclaimed inside finish_and_combine unless they were
    // still in flight then — which is exactly this unit, now landed.
    if (n.cold != nullptr && !n.in_flight && (n.finished || is_dead(item.node)))
      reclaim_cold(item.node);
  }

  /// Ranking keys for the speculative queue under the configured policy.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> spec_keys_for(
      std::uint32_t id) const {
    const Node& n = nodes_[id];
    switch (cfg_.spec_rank) {
      case SpecRankPolicy::kFewestEChildren:
        return {n.e_children(), n.ply};
      case SpecRankPolicy::kBestBound: {
        const std::uint32_t c = best_promotion_candidate(n);
        return {c == kNoNode ? kValueInf : nodes_[c].value, n.ply};
      }
      case SpecRankPolicy::kFifo:
        return {0, 0};
    }
    return {0, 0};
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
    ColdRecord* c = checked_cold(n);  // spec-eligible nodes are expanded
    c->on_spec = true;
    ++c->spec_seq;
    const auto [k1, k2] = spec_keys_for(id);
    spec_.push(SpecEntry{k1, k2, seq_++, id, c->spec_seq});
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

  /// The node's effective search window, folded down from the root exactly
  /// as Figure 8 flips windows at each ply:
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
    Window w = full_window();
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
    return n.cold != nullptr ? static_cast<int>(n.cold->count) : 0;
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
    const std::uint32_t* kids = p.cold->child_nodes();
    for (std::uint32_t i = 0; i < p.cold->count; ++i) {
      const std::uint32_t c = kids[i];
      if (c == kNoNode || !is_promotion_candidate(c)) continue;
      if (best == kNoNode || nodes_[c].value < nodes_[best].value) best = c;
    }
    return best;
  }

  [[nodiscard]] bool spec_eligible(std::uint32_t id) const {
    const Node& n = nodes_[id];
    if (n.type != NodeType::kENode || n.finished || !n.expanded()) return false;
    if (!cfg_.speculation.multiple_e_children && n.first_e_selected()) return false;
    const int d = child_count(n);
    const int need = cfg_.speculation.early_e_child_choice ? d - 1 : d;
    if (n.elder_done() < need) return false;
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
    // the done check runs first and a cold record is allocated only for
    // survivors — an immediately-resolved cutover node costs no slab block.
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
        const bool e_child_done = c->child_nodes()[0] != kNoNode &&
                                  nodes_[c->child_nodes()[0]].finished;
        // Create in reverse index order: the primary queue is LIFO among
        // equals, so pops then visit the children left to right.
        for (int i = child_count(n) - 1; i >= 0; --i)
          if (c->child_nodes()[i] == kNoNode)
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
        if (c->child_nodes()[0] == kNoNode) make_child(id, 0, NodeType::kENode);
        break;
      case NodeType::kRNode:
        if (c->generated == 0) {
          make_child(id, 0, NodeType::kENode);
        } else if (c->generated < static_cast<std::int32_t>(c->count)) {
          // Refutation proceeds one child at a time (Table 1 row 4).
          make_child(id, c->generated, NodeType::kRNode);
        }
        break;
    }
  }

  void make_child(std::uint32_t parent_id, int index, NodeType type) {
    Node& p = nodes_[parent_id];
    ColdRecord* pc = checked_cold(p);
    ERS_CHECK(pc->child_nodes()[index] == kNoNode);
    // Arena slots never move: growth never invalidates existing references.
    const std::uint32_t child_id =
        make_node(pc->positions()[index], parent_id, p.ply + 1, type, index);
    pc->child_nodes()[index] = child_id;
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

  /// `cause` labels the waste ledger's charge for every subtree this finish
  /// (and its backup chain) kills: kBoundChange when the finish originated
  /// in a pop-time cutoff, kSiblingResolution when a committed result
  /// resolved the node.
  void finish_and_combine(std::uint32_t id, WasteCause cause) {
    std::uint32_t cur = id;
    for (;;) {
      Node& n = nodes_[cur];
      n.finished = true;
      n.set_on_spec(false);  // lazily invalidates any spec entry
      // The finish kills cur's subtree: reclaim cur's own cold record and
      // the records of its freshly dead unfinished children.  In-flight
      // records are skipped; their commit_one reclaims on landing.  Deeper
      // dead descendants are reclaimed lazily at their own pops and
      // commits.
      reclaim_finished(cur, cause);
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
      p.bump_finished_children();  // no-op for a dead, already-reclaimed p
      count_elder(pid, cur);  // cur is certainly evaluated-or-finished now
      if (n.type == NodeType::kENode && p.type == NodeType::kENode)
        p.set_e_child_evaluated();
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
    nodes_[parent_id].bump_elder_done();  // no-op for a dead, reclaimed parent
    return true;
  }

  [[nodiscard]] bool is_node_complete(std::uint32_t id) const {
    const Node& n = nodes_[id];
    if (id != 0 && n.value >= beta_of(id)) return true;  // cut off (refuted)
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
    // remaining (undecided) children — all at once under parallel
    // refutation, one at a time otherwise.
    if (c->e_child_evaluated) {
      if (cfg_.speculation.parallel_refutation) {
        if (!c->refutation_dispatched) {
          c->refutation_dispatched = true;
          dispatch_refutations(id, /*all=*/true);
        }
      } else {
        dispatch_refutations(id, /*all=*/false);
      }
    }
    // Table 2 rows 1/4: speculative queue eligibility.
    if (spec_eligible(id)) push_spec(id);
  }

  void dispatch_refutations(std::uint32_t id, bool all) {
    Node& n = nodes_[id];
    ColdRecord* rec = checked_cold(n);  // only expanded e-nodes dispatch
    if (!all) {
      // Sequential refutation: only one child under refutation at a time.
      if (rec->seq_refuting != kNoNode && !nodes_[rec->seq_refuting].finished)
        return;
      rec->seq_refuting = kNoNode;
    }
    // Re-type in ascending tentative-value order (serial ER's refutation
    // order after its sort).  Reused scratch (dispatch never re-enters
    // itself): no per-dispatch allocation at steady state.
    std::vector<std::uint32_t>& undecided = scratch_undecided_;
    undecided.clear();
    const std::uint32_t* kids = rec->child_nodes();
    for (std::uint32_t i = 0; i < rec->count; ++i) {
      const std::uint32_t c = kids[i];
      if (c == kNoNode) continue;
      const Node& cn = nodes_[c];
      if (!cn.finished && cn.type == NodeType::kUndecided) undecided.push_back(c);
    }
    if (undecided.empty()) return;
    std::stable_sort(undecided.begin(), undecided.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return nodes_[a].value < nodes_[b].value;
                     });
    if (!all) {
      // Sequential refutation: take only the most promising candidate.
      Node& cn = nodes_[undecided.front()];
      cn.type = NodeType::kRNode;
      ++stats_.refutations_dispatched;
      if (!cn.in_primary && !cn.in_flight) push_primary(undecided.front());
      rec->seq_refuting = undecided.front();
      return;
    }
    // Parallel refutation: dispatch every candidate.  Push in reverse of
    // the tentative order so LIFO pops refute the most promising first.
    for (auto it = undecided.rbegin(); it != undecided.rend(); ++it) {
      Node& cn = nodes_[*it];
      cn.type = NodeType::kRNode;
      ++stats_.refutations_dispatched;
      // A child that is queued or running continues its current flow; a
      // dormant one needs a fresh pop to make progress.
      if (!cn.in_primary && !cn.in_flight) push_primary(*it);
    }
  }

  // --- tracing & timing hooks ----------------------------------------------

  /// Engine-side trace hook (the session's engine tracer, written under
  /// mu_, so by one thread at a time); a no-op without a session and
  /// compiled out entirely when tracing is disabled.  The single-threaded
  /// simulator re-points the engine tracer to its current virtual worker
  /// before driving the engine.
  void trace_instant(obs::EventKind kind, std::uint32_t node,
                     std::uint32_t arg) {
    if constexpr (!obs::kTracingEnabled) {
      (void)kind; (void)node; (void)arg;
      return;
    }
    if (cfg_.trace == nullptr) return;
    cfg_.trace->engine_tracer().instant(kind, cfg_.trace->now_ns(), node,
                                        arg);
  }

  /// kUnitCommit with the executor-measured compute duration in `dur`
  /// (trace-side waste reconciliation sums these; see commit_one).
  void trace_commit(std::uint32_t node, std::uint32_t arg, std::uint64_t dur) {
    if constexpr (!obs::kTracingEnabled) {
      (void)node; (void)arg; (void)dur;
      return;
    }
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
    if constexpr (!obs::kTracingEnabled) {
      (void)t0; (void)t1; (void)t2;
      return;
    }
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

  /// Cold expansion record: everything a node needs only between its
  /// expansion and its finish — the frozen child positions, the child-node
  /// ids, and the ER phase bookkeeping.  Lives in the slab (Node::cold),
  /// touched only under mu_ except for the lock-free compute-phase reads
  /// on the node's *own* in-flight unit (kExpand's expanded check,
  /// kSerialRefuteRest's frozen child order), which the reclaimer's
  /// !in_flight guard keeps safe.  The child arrays are laid out inline
  /// after this header, sized at expansion:
  ///
  ///     [ColdRecord][cap × Position][cap × child-node id]   (bytes_for)
  struct ColdRecord {
    static constexpr std::uint32_t kLiveMagic = 0xC01DFEEDu;
    static constexpr std::uint32_t kDeadMagic = 0xDEADC01Du;

    std::uint32_t magic = kLiveMagic;  ///< poisoned to kDeadMagic on reclaim
    std::uint8_t size_class = 0;  ///< slab class; kHeapClass = operator new
    bool expanded = false;        ///< child positions computed (Table 1 ran)
    bool partial = false;         ///< cutover node: Eval_first completed
    bool on_spec = false;         ///< a live entry exists in the spec queue
    bool first_e_selected = false;
    bool e_child_evaluated = false;  ///< some promoted e-child has finished
    bool refutation_dispatched = false;
    std::uint32_t capacity = 0;  ///< child slots allocated
    std::uint32_t count = 0;     ///< child positions stored
    std::int32_t generated = 0;  ///< children instantiated as nodes
    std::int32_t finished_children = 0;
    std::int32_t elder_done = 0;  ///< children with tentative value / finished
    std::int32_t e_children = 0;  ///< children promoted to e-node
    std::uint32_t seq_refuting = kNoNode;  ///< sequential-refutation cursor
    std::uint64_t spec_seq = 0;

    [[nodiscard]] Position* positions() noexcept {
      return reinterpret_cast<Position*>(reinterpret_cast<std::byte*>(this) +
                                         positions_offset());
    }
    [[nodiscard]] const Position* positions() const noexcept {
      return reinterpret_cast<const Position*>(
          reinterpret_cast<const std::byte*>(this) + positions_offset());
    }
    [[nodiscard]] std::uint32_t* child_nodes() noexcept {
      return reinterpret_cast<std::uint32_t*>(
          reinterpret_cast<std::byte*>(this) + nodes_offset(capacity));
    }
    [[nodiscard]] const std::uint32_t* child_nodes() const noexcept {
      return reinterpret_cast<const std::uint32_t*>(
          reinterpret_cast<const std::byte*>(this) + nodes_offset(capacity));
    }

    [[nodiscard]] static constexpr std::size_t align_up(
        std::size_t v, std::size_t a) noexcept {
      return (v + a - 1) & ~(a - 1);
    }
    [[nodiscard]] static constexpr std::size_t positions_offset() noexcept {
      return align_up(sizeof(ColdRecord), alignof(Position));
    }
    [[nodiscard]] static constexpr std::size_t nodes_offset(
        std::uint32_t cap) noexcept {
      return align_up(positions_offset() + cap * sizeof(Position),
                      alignof(std::uint32_t));
    }
    /// Total block bytes for `cap` child slots, rounded to 16 so slab bump
    /// pointers stay aligned for any Position type.
    [[nodiscard]] static constexpr std::size_t bytes_for(
        std::uint32_t cap) noexcept {
      return align_up(nodes_offset(cap) + cap * sizeof(std::uint32_t), 16);
    }
  };

  /// Hot per-node record: at most one cache line.  Everything the
  /// scheduling predicates touch (window folds, dead checks, promotion
  /// candidacy, pop filtering) lives here; the expansion payload hangs off
  /// `cold` and is reclaimed when the node finishes or its subtree dies
  /// (ColdRecord above).  The game position lives in the engine's
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

    /// Cold expansion record in the slab — null before expansion and again
    /// after reclamation.  The only lock-free readers are compute() calls
    /// on this node's own in-flight unit, which exclude every writer
    /// (attach and reclaim both refuse in-flight nodes).
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

    // Cold-state readers, tolerant of a reclaimed (null) record: they
    // answer as a node with no expansion state — exactly what a dead or
    // finished node should look like to the scheduling predicates.
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
    [[nodiscard]] std::uint32_t seq_refuting() const noexcept {
      return cold != nullptr ? cold->seq_refuting : kNoNode;
    }
    [[nodiscard]] std::uint64_t spec_seq() const noexcept {
      return cold != nullptr ? cold->spec_seq : 0;
    }
    // Writers that can legitimately run after the record died with the
    // subtree (a finish clearing spec membership, a dead parent's child
    // accounting) degrade to no-ops on null.
    void set_on_spec(bool v) noexcept {
      if (cold != nullptr) cold->on_spec = v;
    }
    void set_e_child_evaluated() noexcept {
      if (cold != nullptr) cold->e_child_evaluated = true;
    }
    void bump_elder_done() noexcept {
      if (cold != nullptr) cold->elder_done += 1;
    }
    void bump_finished_children() noexcept {
      if (cold != nullptr) cold->finished_children += 1;
    }
  };
  static_assert(sizeof(Node) <= 64,
                "hot node record must fit one cache line — move anything "
                "bigger into ColdRecord");

  /// The node's cold record, which must be live: the accessor for commit
  /// paths only reachable while the record exists (expanded nodes that are
  /// neither finished nor dead).  The magic re-check turns a
  /// use-after-reclaim into an immediate ERS_DCHECK failure instead of a
  /// silent read of recycled memory.
  [[nodiscard]] static ColdRecord* checked_cold(const Node& n) {
    ColdRecord* c = n.cold;
    ERS_DCHECK(c != nullptr && c->magic == ColdRecord::kLiveMagic);
    return c;
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

  // --- cold-record allocation / reclamation ---------------------------------

  /// ColdRecord::size_class sentinel: more children than the largest slab
  /// class — the block comes straight from operator new/delete.
  static constexpr std::uint8_t kHeapClass = 0xFF;

  /// Smallest power-of-two slab class holding `cap` children, or kHeapClass.
  [[nodiscard]] static std::uint8_t size_class_for(std::uint32_t cap) noexcept {
    std::uint8_t cls = 0;
    std::uint32_t c = 1;
    while (c < cap) {
      c <<= 1;
      ++cls;
    }
    return cls < ColdSlab::kClasses ? cls : kHeapClass;
  }

  /// Allocate (and placement-construct) a cold record with room for
  /// `children` child slots.
  [[nodiscard]] ColdRecord* alloc_cold(std::size_t children) {
    static_assert(alignof(Position) <= alignof(std::max_align_t),
                  "slab chunks only guarantee fundamental alignment");
    static_assert(std::is_trivially_destructible_v<ColdRecord>);
    ERS_DCHECK(children >= 1);
    const auto need = static_cast<std::uint32_t>(children);
    const std::uint8_t cls = size_class_for(need);
    const std::uint32_t cap = cls == kHeapClass ? need : (1u << cls);
    const std::size_t bytes = ColdRecord::bytes_for(cap);
    void* mem = cls == kHeapClass ? ::operator new(bytes) : slab_.take(cls, bytes);
    auto* rec = ::new (mem) ColdRecord();
    rec->size_class = cls;
    rec->capacity = cap;
    ++cold_allocated_;
    ++cold_live_;
    return rec;
  }

  /// Freeze `kids` as `id`'s child order in a fresh cold record.  The
  /// positions are *copied* — the compute buffer keeps its capacity and is
  /// recycled by the executor (compute_into).
  void attach_cold(std::uint32_t id, const std::vector<Position>& kids) {
    Node& n = nodes_[id];
    ERS_DCHECK(n.cold == nullptr);
    ColdRecord* c = alloc_cold(kids.size());
    Position* ps = c->positions();
    std::uint32_t* cn = c->child_nodes();
    for (std::size_t i = 0; i < kids.size(); ++i) {
      ::new (static_cast<void*>(ps + i)) Position(kids[i]);
      cn[i] = kNoNode;
    }
    c->count = static_cast<std::uint32_t>(kids.size());
    n.cold = c;
  }

  /// Return `id`'s cold record to the slab: destroy the stored positions,
  /// poison the magic word (use-after-reclaim detection), and push the
  /// block onto its size-class freelist.  Refuses in-flight nodes — their
  /// compute phase may be reading the record lock-free — and commit_one
  /// re-runs the reclaim once the unit lands.  No-op when there is nothing
  /// attached.
  void reclaim_cold(std::uint32_t id) {
    Node& n = nodes_[id];
    ColdRecord* c = n.cold;
    if (c == nullptr || n.in_flight) return;
    ERS_DCHECK(c->magic == ColdRecord::kLiveMagic);
    n.cold = nullptr;
    const std::uint8_t cls = c->size_class;
    Position* ps = c->positions();
    for (std::uint32_t i = 0; i < c->count; ++i) ps[i].~Position();
    c->magic = ColdRecord::kDeadMagic;  // poison survives in the freelist
    if (cls == kHeapClass)
      ::operator delete(c);
    else
      slab_.put(cls, c);
    --cold_live_;
    ++cold_reclaimed_;
  }

  /// Reclaim what a freshly finished node no longer needs: its own cold
  /// record and the records of the unfinished children its finish just
  /// killed (finished children already reclaimed at their own finish).
  ///
  /// Waste ledger (DESIGN.md §16): each killed unfinished child is a
  /// cancelled subtree root, charged here — once — with its accumulated
  /// uncharged subtree work and marked in waste_state_ so post-death
  /// commits route to the same (cause, band) cell.  The charge is skipped
  /// entirely when the finishing node already lies inside a cancelled
  /// subtree (nearest_waste_root hit): everything below was attributed
  /// when that subtree died.  Charging a child subtracts its tallies from
  /// every ancestor's, so a later kill higher up charges strictly
  /// never-before-charged work — no unit is attributed twice.
  void reclaim_finished(std::uint32_t id, WasteCause cause) {
    const ColdRecord* c = nodes_[id].cold;
    if (c == nullptr) return;
    const bool already_charged = nearest_waste_root(id) != kNoNode;
    const std::uint32_t* kids = c->child_nodes();
    const std::uint32_t cnt = c->count;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      const std::uint32_t ch = kids[i];
      if (ch == kNoNode || nodes_[ch].finished) continue;
      if (!already_charged && waste_state_[ch] == 0) charge_waste(ch, cause);
      reclaim_cold(ch);
    }
    reclaim_cold(id);
  }

  /// Charge cancelled subtree root `ch` to the ledger and mark it.  The
  /// matching trace event is kSpecCancel with arg = cause + 2 (2 = bound
  /// change, 3 = sibling resolution; the acquire-side drop args 0/1 come
  /// first) — trace_report's speculation-waste section reconciles against
  /// exactly these.
  void charge_waste(std::uint32_t ch, WasteCause cause) {
    const auto ci = static_cast<std::size_t>(cause);
    const std::size_t b =
        waste_band_of(static_cast<std::uint32_t>(nodes_[ch].ply));
    const std::uint64_t u = sub_units_[ch];
    const std::uint64_t ns = sub_ns_[ch];
    waste_.cancels[ci][b] += 1;
    waste_.units[ci][b] += u;
    waste_.compute_ns[ci][b] += ns;
    waste_state_[ch] = static_cast<std::uint8_t>(ci + 1);
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
  StableArena<Node> nodes_;  ///< stable slots: children are created while
                             ///< parent references are live
  /// Id-parallel position arena: positions_[id] is node id's game position.
  /// Never reclaimed — best_root_position() reads the winning child after
  /// the search and compute() reads in-flight positions lock-free — which
  /// keeps hot records pointer-light and spares the reclamation protocol
  /// from ever proving a position unreachable.
  StableArena<Position> positions_;
  /// The problem heap (paper §6).
  std::priority_queue<PrimaryEntry> primary_;
  std::priority_queue<SpecEntry> spec_;
  /// Push sequence for the LIFO/FIFO tiebreaks.
  std::uint64_t seq_ = 0;
  ColdSlab slab_;
  std::uint64_t cold_allocated_ = 0;  ///< cold records ever allocated
  std::uint64_t cold_live_ = 0;       ///< currently attached
  std::uint64_t cold_reclaimed_ = 0;  ///< returned (finish / dead subtree)
  EngineStats stats_;
  /// Wasted-work attribution ledger (DESIGN.md §16).
  EngineWasteStats waste_;
  /// Id-parallel ledger side arrays: per-node *uncharged* committed
  /// subtree work, and the cancelled-subtree mark (0 = live, else
  /// WasteCause + 1).
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
