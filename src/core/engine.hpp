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
// The two queues are partitioned into EngineConfig::heap_shards shards
// (paper §8's proposal of distributing the problem heap).  A node's entries
// live on the shard owning its parent (core/shard_policy.hpp), so one
// commit's pushes land on one shard.  Global pops (acquire/acquire_batch)
// scan the shard tops and are bit-identical to the single-heap order at
// every shard count; shard-local pops (acquire_shard/acquire_batch_shard)
// let an executor drain one shard in its local priority order and balance
// the rest by stealing.
//
// Concurrency model (this PR retires the executor-side global engine
// mutex; DESIGN.md §12):
//
//   * Every shard has its own lock guarding its two queues, its publish
//     list, and the queue-membership state of the nodes homed on it.  A
//     shard-local acquire takes exactly its shard's lock; a global acquire
//     takes all shard locks in ascending index order.
//   * Commits go through a *flat-combining* path: the caller publishes a
//     combine record (the batch of CommitEntry results, or a deferred
//     pop-time cutoff) to a shard's apply list and then either observes a
//     concurrent combiner apply it, or becomes the combiner itself by
//     taking combine_mu_.  The combiner snapshots every shard's publish
//     list, sorts the records by publish ticket, locks the union of the
//     records' *touch sets* in ascending shard order, and applies them
//     back to back.  A record's touch set is every shard owning entries or
//     children of any node on the committed node's ancestor chain — the
//     full footprint of commit + combine + Table 2 — so refills on
//     untouched shards never block, and the ascending order makes the lock
//     hierarchy (combine_mu_, then shard locks ascending) deadlock-free by
//     construction.
//   * Epoch publication (DESIGN.md §13): nodes at ply <
//     EngineConfig::publish_frontier are "high".  Every (value, finished)
//     mutation on a high node is additionally published through a
//     versioned atomic word, so window_of/is_dead read high ancestors
//     lock-free with epoch validation, and a commit whose node lies at or
//     below the frontier locks only the shards of chain nodes within two
//     plies of it (the *truncated touch set*) — shard 0, home of the root,
//     leaves almost every touch set, and commits on disjoint subtrees
//     never meet at a lock.  A backup that climbs past the frontier is
//     deferred and immediately resumed as a *continuation* under the full
//     ancestor-chain lock set, in the exact position the untruncated apply
//     would have run it, so the committed-state sequence is bit-identical
//     with the frontier on or off.
//   * Shard placement is pluggable (EngineConfig::placement,
//     core/shard_policy.hpp): parent-mod (default) or top-level-subtree
//     affinity, which keeps a whole subtree on one shard so truncated
//     commits on disjoint subtrees lock disjoint singleton shard sets and
//     the runtime can pin subtree shards to NUMA nodes.
//   * Node fields read across shard boundaries (ancestor windows, dead
//     checks, promotion candidacy) are relaxed atomics.  Staleness is
//     sound because node values only increase: a stale ancestor value
//     yields a *wider* (weaker) window, so a pop-time cutoff that fires
//     against a stale bound is still valid against the fresh one, and a
//     missed cutoff merely schedules work a later check cancels.
//   * Node storage is two-tier (DESIGN.md §15): the id-stable arena holds a
//     cacheline-sized *hot* record per node (published word, value/finished
//     atomics, parent/ply links) next to an id-parallel position arena,
//     while the expansion payload — frozen child positions, child-node ids,
//     ER phase bookkeeping — lives in a *cold* record allocated from the
//     home shard's slab at expansion and reclaimed (through per-shard
//     size-class freelists) when the node finishes or its subtree dies.
//     Cold records are touched only under the home shard's lock, except the
//     lock-free compute-phase reads on a node's *own* in-flight unit, which
//     the reclaimer's !in_flight guard keeps safe; commit_one releases the
//     record of a unit whose node died in flight once the unit lands.
//   * Pop order stays bit-identical at every shard count: pops use the
//     same global comparator over shard tops as the single heap, pushes
//     happen only inside combiner application (serialized by combine_mu_),
//     and a single-threaded driver publishes and immediately applies each
//     record itself, reproducing the PR-3 mutation order exactly.
//
// The batch protocol forms — the contention remedy of the paper's §6
// observation that heap serialization erodes efficiency as processors are
// added — survive unchanged:
//
//     acquire_batch(k, out)         pop up to k ready units in one locked
//                                   pass over the shard tops
//     commit_batch(span)            publish the results as one combine
//                                   record; applied back to back, so a
//                                   batch commit is exactly a sequence of
//                                   single commits in batch order
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
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <queue>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/shard_policy.hpp"
#include "core/types.hpp"
#include "gametree/game.hpp"
#include "obs/trace.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"
#include "search/table_hooks.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers::core {

/// Relaxed-atomic cell for node fields that are *read* across shard
/// boundaries while their owner's shard lock serializes all writes.  The
/// implicit conversions keep the scheduling code readable; every access is
/// memory_order_relaxed on purpose — cross-shard readers tolerate staleness
/// (see the monotonicity argument in the header comment), and the
/// happens-before edges they do need come from the shard mutexes.
template <typename T>
class Shared {
 public:
  constexpr Shared() noexcept = default;
  constexpr Shared(T v) noexcept : v_(v) {}
  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;
  [[nodiscard]] operator T() const noexcept {  // NOLINT(google-explicit-*)
    return v_.load(std::memory_order_relaxed);
  }
  Shared& operator=(T v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<T> v_;
};

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
    ERS_CHECK(cfg_.heap_shards >= 1);
    cfg_.serial_depth = std::clamp(cfg_.serial_depth, 0, cfg_.search_depth);
    if (cfg_.publish_frontier < 0)
      cfg_.publish_frontier = derived_publish_frontier(
          cfg_.search_depth, cfg_.serial_depth, cfg_.heap_shards);
    for (int s = 0; s < cfg_.heap_shards; ++s) shards_.emplace_back();
    for (Shard& sh : shards_)
      sh.spec_budget.store(
          static_cast<std::uint32_t>(cfg_.spec_control.budget_max),
          std::memory_order_relaxed);
    if constexpr (obs::kTracingEnabled) {
      if (cfg_.trace != nullptr) cfg_.trace->ensure_shards(shards_.size());
    }
    // Construction is single-threaded: seeding the root needs no locks.
    make_node(game_.root(), kNoNode, 0, NodeType::kENode, 0,
              /*subtree=*/0u);
    push_primary(0);
  }

  /// One unit of a batched commit: the acquired item and its compute result.
  struct CommitEntry {
    WorkItem item;
    ComputeResult result;
  };

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

  /// One published flat-combining operation.  Records live on the
  /// publisher's stack: the publisher blocks (publishing thread) or drains
  /// (combiner) until `applied` is set, so the pointer in a shard's publish
  /// list never dangles.
  struct ApplyRecord {
    enum class Kind : std::uint8_t {
      kCommit,  ///< apply `entries` back to back (a commit_batch)
      kFinish,  ///< deferred pop-time cutoff: finish_and_combine(finish_node)
    };
    Kind kind = Kind::kCommit;
    std::span<CommitEntry> entries{};
    std::uint32_t finish_node = kNoNode;
    /// kFinish: the cutoff was against the node's own bound (traced as a
    /// kSpecCancel), not the empty-window parent finish (untraced, matching
    /// the pre-sharded engine).
    bool traced_cutoff = false;
    std::uint64_t ticket = 0;
    std::atomic<bool>* applied = nullptr;
  };

  /// A pop-time cutoff detected under an acquire's shard locks.  The
  /// finish walks a cross-shard ancestor chain, so the acquire releases
  /// its locks, publishes a kFinish record, combines, and retries — which
  /// single-threaded reproduces the old pop -> finish -> keep-popping
  /// sequence exactly.
  struct DeferredFinish {
    std::uint32_t node = kNoNode;  ///< kNoNode = nothing deferred
    bool traced = false;
  };

  /// Per-shard slab allocator for cold expansion records (ColdRecord,
  /// defined with the node storage below).  No internal lock: every call
  /// happens while the owning shard's queue mutex is held — allocation
  /// inside a combiner's apply section (whose touch set always includes the
  /// expanding node's home shard) and reclamation under the same lock at
  /// finish/dead-drop time.  Blocks are grouped into power-of-two
  /// child-capacity size classes and recycled through per-class freelists,
  /// so steady-state expansion after warmup performs no heap allocation;
  /// chunk memory is never returned to the OS, which keeps every block
  /// address stable for the magic-word poisoning reclaim writes
  /// (use-after-reclaim detection, ERS_DCHECKed in checked_cold).
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

  /// One slice of the problem heap: the primary and speculative queues for
  /// the nodes homed here, the shard's lock, and its flat-combining publish
  /// list.  Entry comparators are global (ply/keys + global seq), so within
  /// a shard the paper's priority order is preserved and across shards the
  /// tops reconstruct the global order exactly.
  struct Shard {
    std::priority_queue<PrimaryEntry> primary;
    std::priority_queue<SpecEntry> spec;
    /// Guards the queues and the queue-membership state (in_primary,
    /// in_flight, on_spec, spec_seq, and every plain field) of nodes homed
    /// here.  Writers are acquires on this shard and combiners whose touch
    /// set includes it.
    mutable std::mutex mu;
    /// Guards `pending` only — a leaf lock publishers take without mu so a
    /// publish never waits behind a long apply.
    mutable std::mutex pending_mu;
    std::vector<ApplyRecord*> pending;
    // Counted lock sections attributed to this shard (guarded by mu).
    std::uint64_t lock_acquisitions = 0;
    std::uint64_t lock_wait_ns = 0;
    std::uint64_t lock_hold_ns = 0;
    /// ++ under mu; read lock-free when stats() folds the aggregate.
    std::atomic<std::uint64_t> dead_drops{0};
    /// Waste-ledger kDeadDrop cancels by ply band: queue entries (primary
    /// and speculative) discarded at acquire time because the node's
    /// subtree had already died.  ++ under mu like dead_drops; folded
    /// lock-free by waste_stats().
    std::array<std::atomic<std::uint64_t>, kWastePlyBands> waste_drops{};
    /// Cold-record slab for the nodes homed here, plus its occupancy
    /// counters — all guarded by mu, like the queues (allocation happens
    /// inside apply sections whose touch set includes this shard,
    /// reclamation under an acquire or apply holding this lock).
    ColdSlab slab;
    std::uint64_t cold_allocated = 0;  ///< cold records ever allocated
    std::uint64_t cold_live = 0;       ///< currently attached
    std::uint64_t cold_reclaimed = 0;  ///< returned (finish / dead subtree)
    // Steal-aware speculation control (DESIGN.md §17).  All relaxed
    // atomics: the executor's steal feedback and the stats snapshots read
    // or write them without this shard's lock; the pop-side counters are
    // bumped while mu happens to be held, but nothing relies on that.
    /// Speculative entries re-pushed at pop time because their rank
    /// decayed (sibling bounds tightened / steal pressure rose), by ply
    /// band — the waste ledger's kSpecDemoted cancel row.
    std::array<std::atomic<std::uint64_t>, kWastePlyBands> spec_demotes{};
    /// Entries re-pushed after the published window moved past their best
    /// candidate entirely — the kSpecRewindowed cancel row.
    std::array<std::atomic<std::uint64_t>, kWastePlyBands> spec_rewindows{};
    /// Spec pops skipped because this shard was at its speculation budget.
    std::atomic<std::uint64_t> spec_budget_deferrals{0};
    /// Speculative promotions in flight from this shard: ++ when a
    /// kPromote item is emitted, -- when it commits.
    std::atomic<std::uint32_t> spec_inflight{0};
    /// Live cap on spec_inflight, recomputed each combine round from the
    /// waste ledger's speculative-loss share (refresh_spec_control).
    std::atomic<std::uint32_t> spec_budget{64};
    /// Decaying count of executor steals that took work homed here — the
    /// kStealAware ranker's pressure signal (note_steal feeds it, the
    /// combiner decays it).
    std::atomic<std::uint64_t> steal_pressure{0};
  };

  /// Sentinel for "pop the globally best entry over every shard".
  static constexpr std::size_t kAnyShard = std::numeric_limits<std::size_t>::max();

  struct Node;        // defined with the storage arena below
  struct ColdRecord;  // slab-resident expansion payload, defined with Node

 public:
  /// Caller-owned handle for a commit published without combining
  /// (publish_commit below).  Must outlive the record's application.
  struct PendingCommit {
    PendingCommit() = default;
    PendingCommit(const PendingCommit&) = delete;
    PendingCommit& operator=(const PendingCommit&) = delete;
    std::atomic<bool> applied{false};

   private:
    friend class Engine;
    ApplyRecord record{};
  };

  // --- executor protocol -------------------------------------------------

  [[nodiscard]] std::optional<WorkItem> acquire() {
    WorkItem buf;
    return acquire_fill(kAnyShard, std::span<WorkItem>(&buf, 1)) == 1
               ? std::optional<WorkItem>(buf)
               : std::nullopt;
  }

  /// Shard-local acquire: pop the best ready unit of shard `s` only (its
  /// own priority order; never touches other shards' queues or locks).  The
  /// thread runtime's steal loop drains a worker's home shard through this
  /// before probing victims.
  [[nodiscard]] std::optional<WorkItem> acquire_shard(std::size_t s) {
    WorkItem buf;
    return acquire_fill(fold_shard(s, shards_.size()),
                        std::span<WorkItem>(&buf, 1)) == 1
               ? std::optional<WorkItem>(buf)
               : std::nullopt;
  }

  /// Batch form of acquire(): pop up to `k` ready units in one locked pass,
  /// appending them to `out`.  Returns the number acquired.
  std::size_t acquire_batch(std::size_t k, std::vector<WorkItem>& out) {
    return acquire_batch_from(kAnyShard, k, out);
  }

  /// Batch form of acquire_shard(): up to `k` units from shard `s` alone.
  std::size_t acquire_batch_shard(std::size_t s, std::size_t k,
                                  std::vector<WorkItem>& out) {
    return acquire_batch_from(fold_shard(s, shards_.size()), k, out);
  }

  void commit(const WorkItem& item, ComputeResult&& r) {
    CommitEntry e{item, std::move(r)};
    commit_batch(std::span<CommitEntry>(&e, 1));
  }

  /// Batch form of commit(): publish the results as one flat-combining
  /// record and block until some combiner — usually this thread — applies
  /// it.  Application is exactly a sequence of single commits executed
  /// back to back in batch order; the combine procedure only requires
  /// commits to be serialized, never that they interleave at any particular
  /// granularity, so batching changes the schedule but not the result (the
  /// root value is schedule-independent).  Entries are consumed (results
  /// moved from).  Returns true when a *concurrent* combiner applied the
  /// record — the caller never took a shard lock (the stealing runtime
  /// counts these as flush deferrals).
  bool commit_batch(std::span<CommitEntry> batch) {
    if (batch.empty()) return false;
    std::atomic<bool> applied{false};
    ApplyRecord rec;
    rec.kind = ApplyRecord::Kind::kCommit;
    rec.entries = batch;
    rec.applied = &applied;
    // Uncontended fast path: the combine lock is free, so skip the publish
    // queue entirely — become the combiner and apply this record (after
    // any peers' published ones) in one round.  Behaviorally identical to
    // publish + immediate self-combine, minus a pending-queue round-trip
    // per commit; a sequential driver always takes this branch, so the
    // single-threaded schedule is untouched.
    if (combine_mu_.try_lock()) {
      drain_round_with(&rec);
      combine_mu_.unlock();
      ERS_CHECK(applied.load(std::memory_order_acquire));
      return false;
    }
    publish(rec, home_shard(batch.front().item.node),
            static_cast<std::uint32_t>(batch.size()));
    return combine_until_applied(applied);
  }

  /// Opportunistic combine: become the combiner if nobody else is, drain
  /// every published record, and return true.  False means a peer holds the
  /// combine lock — the caller's published records will ride that peer's
  /// round or a later one (check their PendingCommit::applied).  This is
  /// the non-blocking half of the asynchronous commit path: publish_commit
  /// + try_combine lets an executor keep computing through a contended
  /// commit instead of convoying behind the current combiner.
  bool try_combine() {
    if (!combine_mu_.try_lock()) return false;
    drain_round();
    combine_mu_.unlock();
    return true;
  }

  /// Non-blocking commit: if the combine lock is free, become the combiner
  /// and apply `batch` (after any published peers) in one round, returning
  /// true with the entries consumed.  Returns false — entries untouched —
  /// when a peer holds the lock; the caller publishes them instead
  /// (publish_commit) and keeps working.  The stealing executor's flush
  /// rides this so an uncontended commit costs one try_lock plus the
  /// touch-set shard locks and never a pending-queue round-trip.
  bool try_commit_batch(std::span<CommitEntry> batch) {
    if (batch.empty()) return true;
    if (!combine_mu_.try_lock()) return false;
    std::atomic<bool> applied{false};
    ApplyRecord rec;
    rec.kind = ApplyRecord::Kind::kCommit;
    rec.entries = batch;
    rec.applied = &applied;
    drain_round_with(&rec);
    combine_mu_.unlock();
    ERS_CHECK(applied.load(std::memory_order_acquire));
    return true;
  }

  // --- asynchronous commit path (stealing executor + tests/core) ----------

  /// Publish `batch` as a combine record *without* combining.  `batch` and
  /// `pc` must stay alive until some combiner applies the record —
  /// combine_published() below, or any concurrent commit path.
  void publish_commit(std::span<CommitEntry> batch, PendingCommit& pc) {
    ERS_CHECK(!batch.empty());
    pc.record.kind = ApplyRecord::Kind::kCommit;
    pc.record.entries = batch;
    pc.record.applied = &pc.applied;
    publish(pc.record, home_shard(batch.front().item.node),
            static_cast<std::uint32_t>(batch.size()));
  }

  /// Become the combiner and drain one full round: every record published
  /// so far is applied, in publish-ticket order.
  void combine_published() {
    std::scoped_lock lk(combine_mu_);
    drain_round();
  }

  // --- queue observers ----------------------------------------------------

  /// Entries currently queued (primary + speculative) across all shards.
  /// An upper bound — lazily-invalidated stale entries are counted — which
  /// is all the thread runtime needs to size its wakeups to the work
  /// actually available.  Takes each shard lock briefly (uncounted).
  [[nodiscard]] std::size_t queued_count() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::scoped_lock lk(s.mu);
      n += s.primary.size() + s.spec.size();
    }
    return n;
  }

  /// Queued entries (upper bound, stale included) in shard `s` alone.
  [[nodiscard]] std::size_t queued_count_shard(std::size_t s) const {
    const Shard& sh = shards_[fold_shard(s, shards_.size())];
    std::scoped_lock lk(sh.mu);
    return sh.primary.size() + sh.spec.size();
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// The epoch-publication frontier this engine actually runs with: the
  /// configured value, or — when the config was left at kAdaptiveFrontier —
  /// the derived_publish_frontier resolution done at construction.
  [[nodiscard]] int publish_frontier() const noexcept {
    return cfg_.publish_frontier;
  }

  /// The shard a node's queue entries live in, under the configured
  /// placement (core/shard_policy.hpp): the shard owning its parent
  /// (kParentMod, so one commit's children colocate) or its top-level
  /// subtree's shard (kSubtreeAffinity).  Lock-free: parent links and
  /// subtree tags are immutable.
  [[nodiscard]] std::size_t home_shard(std::uint32_t id) const noexcept {
    const Node& n = nodes_[id];
    return cfg_.placement == PlacementMode::kSubtreeAffinity
               ? subtree_shard_of(id, n.subtree, shards_.size())
               : home_shard_of(n.parent, shards_.size());
  }

  /// Append the ascending, deduplicated set of shards a commit on `id` may
  /// lock: the frontier-truncated set when the commit is eligible, else
  /// every shard owning entries or children of any chain node.  Lock-free
  /// (the chain is immutable); the simulator charges its routed contention
  /// model from exactly this set.
  void commit_touch_shards(std::uint32_t id,
                           std::vector<std::uint32_t>& out) const {
    const std::size_t S = shards_.size();
    std::array<std::uint8_t, kMaxShards> seen{};
    ERS_CHECK(S <= seen.size());
    (void)mark_touch_for_commit(id, seen.data());
    for (std::size_t s = 0; s < S; ++s)
      if (seen[s] != 0) out.push_back(static_cast<std::uint32_t>(s));
  }

  /// Chain ancestors of `id` a commit reads through the epoch-published
  /// word instead of under a lock: ancestors above the frontier, when the
  /// commit's touch set is truncated.  The simulator charges these as
  /// lock-free validated reads (CostModel::per_published_read) rather than
  /// shard occupancy.
  [[nodiscard]] std::size_t published_ancestors(std::uint32_t id) const {
    if (!truncation_eligible(id)) return 0;
    std::size_t n = 0;
    for (std::uint32_t a = nodes_[id].parent; a != kNoNode;
         a = nodes_[a].parent)
      if (nodes_[a].ply < cfg_.publish_frontier) ++n;
    return n;
  }

 private:
  std::size_t acquire_batch_from(std::size_t shard, std::size_t k,
                                 std::vector<WorkItem>& out) {
    const std::size_t base = out.size();
    out.resize(base + k);
    const std::size_t got =
        acquire_fill(shard, std::span<WorkItem>(out).subspan(base));
    out.resize(base + got);
    return got;
  }

  /// Acquire driver: repeat locked popping passes, handling deferred
  /// pop-time cutoffs between passes, until `out` is full or the visible
  /// queues are drained.
  std::size_t acquire_fill(std::size_t shard, std::span<WorkItem> out) {
    std::size_t got = 0;
    for (;;) {
      DeferredFinish d{};
      if (shard == kAnyShard && shards_.size() > 1) {
        // Lock-order invariant (closes the DESIGN.md §12 caveat): the
        // global scan acquires every shard lock in one ascending pass from
        // an empty hold set — the same discipline as a combiner's
        // per-record apply section, whose (possibly frontier-truncated)
        // lock set is an ascending subset also taken from empty hands.
        // Two ascending passes over subsets of one total order cannot
        // cycle, so truncation changes which commits this scan waits for
        // (those touching any shard, no longer just those touching shard
        // 0) but can never deadlock against one.  A continuation
        // escalation (resolve_deferred_backup) keeps the discipline by
        // fully releasing the truncated set before taking the full one.
        // (The matching debug assertion lives in lock_ascending, the one
        // place combiner sections acquire shard locks.)
        const auto t0 = Clock::now();
        for (Shard& sh : shards_) sh.mu.lock();
        const auto t1 = Clock::now();
        got += acquire_under_locks(shard, out.subspan(got), d);
        const auto t2 = Clock::now();
        // Multi-lock counters are relaxed atomics: with truncated touch
        // sets an apply section need not hold shard 0, so the global
        // scan's writes are no longer serialized against the combiner's
        // through any one fixed mutex.
        multi_acquisitions_.fetch_add(1, std::memory_order_relaxed);
        multi_wait_ns_.fetch_add(delta_ns(t0, t1), std::memory_order_relaxed);
        multi_hold_ns_.fetch_add(delta_ns(t1, t2), std::memory_order_relaxed);
        for (auto it = shards_.rbegin(); it != shards_.rend(); ++it)
          it->mu.unlock();
        trace_lock_section(t0, t1, t2, obs::kNoTraceShard);
      } else {
        const std::size_t s = shard == kAnyShard ? 0 : shard;
        Shard& sh = shards_[s];
        const auto t0 = Clock::now();
        sh.mu.lock();
        const auto t1 = Clock::now();
        got += acquire_under_locks(shard, out.subspan(got), d);
        const auto t2 = Clock::now();
        sh.lock_acquisitions += 1;
        sh.lock_wait_ns += delta_ns(t0, t1);
        sh.lock_hold_ns += delta_ns(t1, t2);
        sh.mu.unlock();
        trace_lock_section(t0, t1, t2, static_cast<std::uint16_t>(s));
      }
      if (d.node == kNoNode) return got;  // filled, or queues drained
      apply_deferred_finish(d);
      if (got == out.size()) return got;
    }
  }

  /// One locked popping pass; caller holds the lock(s) covering `shard`.
  /// Mirrors the pre-sharded acquire loop exactly, except that a pop-time
  /// cutoff is reported through `d` for the caller to combine instead of
  /// finishing inline.
  std::size_t acquire_under_locks(std::size_t shard, std::span<WorkItem> out,
                                  DeferredFinish& d) {
    std::size_t got = 0;
    while (got < out.size()) {
      auto popped = pop_primary(shard);
      if (!popped) break;
      const PrimaryEntry e = *popped;
      Node& n = nodes_[e.node];
      if (!n.in_primary) continue;  // stale entry
      n.in_primary = false;
      if (n.finished || is_dead(e.node)) {
        const std::size_t owner = home_shard(e.node);
        shards_[owner].dead_drops.fetch_add(1, std::memory_order_relaxed);
        note_dead_drop(owner, e.node);
        trace_shard_instant(owner, obs::EventKind::kSpecCancel, e.node,
                            /*arg=*/0);
        // The popped entry's home-shard lock is held, so a dead node's own
        // expansion payload can be returned right here.  Only the node's
        // record: its children live on shards this (possibly shard-local)
        // acquire does not hold — deeper dead descendants are reclaimed
        // lazily, at their own pops and commits.
        reclaim_cold(e.node);
        continue;
      }
      // Pop-time cutoff: the node's tentative value may already refute it
      // against the parent's *current* bound.  (A stale bound read is
      // sound: bounds only tighten, so a cutoff seen stale holds fresh.)
      if (n.parent != kNoNode && n.value >= beta_of(e.node)) {
        d = DeferredFinish{e.node, /*traced=*/true};
        return got;
      }
      if (n.ply >= cfg_.serial_depth) {
        const Window w = window_of(e.node);
        if (!w.is_open()) {
          // Empty window: an ancestor's bound already refutes the parent.
          // Finish the parent instead of searching nothing.
          d = DeferredFinish{n.parent, /*traced=*/false};
          return got;
        }
        n.in_flight = true;
        out[got++] = WorkItem{e.node,  serial_kind(n), w, n.value, n.type, &n,
                              &positions_[e.node]};
        continue;
      }
      n.in_flight = true;
      out[got++] = WorkItem{e.node,  WorkKind::kExpand, full_window(),
                            -kValueInf, n.type,          &n,
                            &positions_[e.node]};
    }
    while (got < out.size()) {
      auto popped = pop_spec(shard);
      if (!popped) break;
      const SpecEntry e = *popped;
      Node& n = nodes_[e.node];
      if (!n.on_spec() || e.spec_seq != n.spec_seq()) continue;  // stale
      n.set_on_spec(false);
      if (n.finished || is_dead(e.node)) {
        // A dead speculative entry is a dropped queue item exactly like the
        // primary case above: count and trace it so the waste ledger and
        // trace_report see every discarded entry, not just primary ones.
        const std::size_t owner = home_shard(e.node);
        note_dead_drop(owner, e.node);
        trace_shard_instant(owner, obs::EventKind::kSpecCancel, e.node,
                            /*arg=*/0);
        reclaim_cold(e.node);
        continue;
      }
      if (!spec_eligible(e.node)) continue;
      // Bound-driven demotion (DESIGN.md §17): re-rank the entry against
      // the *current* published bounds and steal pressure before spending
      // a promotion on it.  A strictly decayed rank goes back through
      // push_spec — whose spec_seq bump lazily invalidates any other
      // queued copy, the exact staleness path pop-order determinism
      // already relies on — and is classified for the waste ledger as a
      // re-window (the window moved past the candidate entirely) or a
      // plain demotion.  Strict decay bounds the re-pushes: an entry
      // whose rank is stable, however poor, is promoted rather than spun.
      if (cfg_.spec_control.bound_demote) {
        const auto [k1, k2] = spec_keys_for(e.node);
        if (k1 > e.key1) {
          const std::size_t owner = home_shard(e.node);
          const std::size_t band =
              waste_band_of(static_cast<std::uint32_t>(n.ply));
          const std::uint32_t cand = best_promotion_candidate(n);
          const bool closed =
              cand == kNoNode ||
              negate(static_cast<Value>(nodes_[cand].value)) <=
                  window_of(e.node).alpha;
          auto& row = closed ? shards_[owner].spec_rewindows
                             : shards_[owner].spec_demotes;
          row[band].fetch_add(1, std::memory_order_relaxed);
          const bool steal_driven =
              !closed && cfg_.spec_control.steal_feedback &&
              shards_[owner].steal_pressure.load(
                  std::memory_order_relaxed) != 0;
          trace_shard_instant(owner,
                              closed ? obs::EventKind::kSpecRewindow
                                     : obs::EventKind::kSpecDemote,
                              e.node, steal_driven ? 1u : 0u);
          push_spec(e.node);
          continue;
        }
      }
      shards_[home_shard(e.node)].spec_inflight.fetch_add(
          1, std::memory_order_relaxed);
      out[got++] = WorkItem{e.node,  WorkKind::kPromote, full_window(),
                            -kValueInf, n.type,           &n,
                            &positions_[e.node]};
    }
    return got;
  }

  /// Pop the best live primary entry — of one shard, or globally.  The
  /// global pop scans the shard tops: each shard is a max-heap under the
  /// same comparator (global seq tiebreak included), so the maximum over
  /// tops *is* the single-heap maximum and the global pop sequence is
  /// bit-identical at every shard count.
  [[nodiscard]] std::optional<PrimaryEntry> pop_primary(std::size_t shard) {
    Shard* best = nullptr;
    if (shard == kAnyShard) {
      for (Shard& s : shards_) {
        if (s.primary.empty()) continue;
        if (best == nullptr || best->primary.top() < s.primary.top()) best = &s;
      }
    } else if (!shards_[shard].primary.empty()) {
      best = &shards_[shard];
    }
    if (best == nullptr) return std::nullopt;
    const PrimaryEntry e = best->primary.top();
    best->primary.pop();
    return e;
  }

  /// As pop_primary, over the speculative queues, with two additions: the
  /// scan caches the running best top instead of re-peeking `best`'s heap
  /// on every comparison (top() is not free — it re-derefs the heap array
  /// each call, and the old form peeked both sides per shard), and a shard
  /// at its speculation budget is skipped entirely (counted as a
  /// deferral).  With spec_control off the budget gate never fires and the
  /// pop sequence is bit-identical to the single-heap order, as before.
  [[nodiscard]] std::optional<SpecEntry> pop_spec(std::size_t shard) {
    Shard* best = nullptr;
    const SpecEntry* best_top = nullptr;
    if (shard == kAnyShard) {
      for (Shard& s : shards_) {
        if (s.spec.empty() || spec_over_budget(s)) continue;
        const SpecEntry& top = s.spec.top();
        if (best_top == nullptr || *best_top < top) {
          best = &s;
          best_top = &top;
        }
      }
    } else if (!shards_[shard].spec.empty() &&
               !spec_over_budget(shards_[shard])) {
      best = &shards_[shard];
    }
    if (best == nullptr) return std::nullopt;
    const SpecEntry e = best->spec.top();
    best->spec.pop();
    return e;
  }

  /// True when the speculation budget bars popping from this shard right
  /// now; counts the deferral.  Always false with the budget policy off.
  [[nodiscard]] bool spec_over_budget(Shard& s) {
    if (!cfg_.spec_control.budget) return false;
    if (s.spec_inflight.load(std::memory_order_relaxed) <
        s.spec_budget.load(std::memory_order_relaxed))
      return false;
    s.spec_budget_deferrals.fetch_add(1, std::memory_order_relaxed);
    return true;
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
    // Use the pointers captured under the shard lock: indexing nodes_ or
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

  /// Executor feedback (DESIGN.md §17): a stealing worker took a unit
  /// homed on `node`'s shard.  Bumps that shard's decaying pressure
  /// signal — read by the kStealAware ranker — and the global steal tally.
  /// Lock-free and advisory; a no-op unless steal feedback is enabled, so
  /// the sim executor (which never steals) and disabled configs remain
  /// bit-identical.
  void note_steal(std::uint32_t node) noexcept {
    if (!cfg_.spec_control.steal_feedback) return;
    shards_[home_shard(node)].steal_pressure.fetch_add(
        1, std::memory_order_relaxed);
    steal_events_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- run observers -------------------------------------------------------

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] Value root_value() const noexcept {
    return nodes_[0].value;
  }

  /// Position of the root child that achieved the root value — the move to
  /// play.  Empty when the root was resolved inside a single serial unit
  /// (serial_depth == 0) or is a leaf.
  [[nodiscard]] std::optional<Position> best_root_position() const {
    std::scoped_lock lk(combine_mu_);
    const std::uint32_t b = nodes_[0].best_child;
    if (b == kNoNode) return std::nullopt;
    return positions_[b];  // the position arena is never reclaimed
  }

  /// Aggregate engine counters.  Returns a snapshot by value: the shard-
  /// local dead-drop tallies are folded in and the combiner-owned counters
  /// read under combine_mu_.
  [[nodiscard]] EngineStats stats() const {
    EngineStats out;
    {
      std::scoped_lock lk(combine_mu_);
      out = stats_;
    }
    for (const Shard& s : shards_) {
      out.dead_items_dropped += s.dead_drops.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kWastePlyBands; ++b) {
        out.spec_demotions +=
            s.spec_demotes[b].load(std::memory_order_relaxed);
        out.spec_rewindows +=
            s.spec_rewindows[b].load(std::memory_order_relaxed);
      }
      out.spec_budget_deferrals +=
          s.spec_budget_deferrals.load(std::memory_order_relaxed);
    }
    out.steal_events = steal_events_.load(std::memory_order_relaxed);
    return out;
  }

  /// Snapshot of the wasted-work attribution ledger (DESIGN.md §16): the
  /// combiner-owned kill cells read under combine_mu_, with the shard-side
  /// dead-drop tallies folded into the kDeadDrop cancel row.  Cheap enough
  /// for the sampler to call every tick.
  [[nodiscard]] EngineWasteStats waste_stats() const {
    EngineWasteStats out;
    {
      std::scoped_lock lk(combine_mu_);
      out = waste_;
    }
    const auto dd = static_cast<std::size_t>(WasteCause::kDeadDrop);
    const auto sd = static_cast<std::size_t>(WasteCause::kSpecDemoted);
    const auto sr = static_cast<std::size_t>(WasteCause::kSpecRewindowed);
    for (const Shard& s : shards_)
      for (std::size_t b = 0; b < kWastePlyBands; ++b) {
        out.cancels[dd][b] += s.waste_drops[b].load(std::memory_order_relaxed);
        // Demotions and re-windows are entry-level events: a re-pushed
        // entry costs a queue round-trip, never committed subtree work,
        // so these rows carry cancels only (units/ns stay zero).
        out.cancels[sd][b] +=
            s.spec_demotes[b].load(std::memory_order_relaxed);
        out.cancels[sr][b] +=
            s.spec_rewindows[b].load(std::memory_order_relaxed);
      }
    return out;
  }

  /// Snapshot of the per-shard and flat-combining lock accounting; the
  /// thread runtime folds this into its SchedulerStats totals.
  [[nodiscard]] EngineLockStats lock_stats() const {
    EngineLockStats out;
    const std::size_t S = shards_.size();
    out.shard_acquisitions.resize(S);
    out.shard_wait_ns.resize(S);
    out.shard_hold_ns.resize(S);
    for (std::size_t s = 0; s < S; ++s) {
      const Shard& sh = shards_[s];
      std::scoped_lock lk(sh.mu);
      out.shard_acquisitions[s] = sh.lock_acquisitions;
      out.shard_wait_ns[s] = sh.lock_wait_ns;
      out.shard_hold_ns[s] = sh.lock_hold_ns;
    }
    out.multi_acquisitions =
        multi_acquisitions_.load(std::memory_order_relaxed);
    out.multi_wait_ns = multi_wait_ns_.load(std::memory_order_relaxed);
    out.multi_hold_ns = multi_hold_ns_.load(std::memory_order_relaxed);
    {
      std::scoped_lock lk(combine_mu_);
      out.combine_batches = combine_batches_;
      out.combine_records = combine_records_;
      out.combine_entries = combine_entries_;
      out.truncated_records = truncated_records_;
      out.frontier_continuations = frontier_continuations_;
      out.root_publishes = root_publishes_;
      out.root_publish_retries = root_publish_retries_;
    }
    out.root_validate_retries =
        validate_retries_.load(std::memory_order_relaxed);
    out.combine_peer_applied = peer_applied_.load(std::memory_order_relaxed);
    out.combine_wait_ns = publisher_wait_ns_.load(std::memory_order_relaxed);
    return out;
  }

  /// Memory-occupancy snapshot of the two-tier node storage: hot/position
  /// arena bytes plus the per-shard cold-record counters and slab bytes
  /// (heap-class records — more than 128 children — count in cold_live but
  /// not slab_bytes).  Every total is monotone (see EngineMemStats), so
  /// peak_bytes is the current reserved sum.  Takes each shard lock briefly
  /// (uncounted), like queued_count.
  [[nodiscard]] EngineMemStats mem_stats() const {
    EngineMemStats m;
    m.live_nodes = nodes_.size();
    m.hot_bytes = nodes_.reserved_bytes();
    m.position_bytes = positions_.reserved_bytes();
    for (const Shard& s : shards_) {
      std::scoped_lock lk(s.mu);
      m.cold_allocated += s.cold_allocated;
      m.cold_live += s.cold_live;
      m.cold_reclaimed += s.cold_reclaimed;
      m.slab_bytes += s.slab.reserved_bytes();
    }
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
    std::scoped_lock lk(shards_[home_shard(id)].mu);
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
    for (const Shard& s : shards_) {
      std::scoped_lock lk(s.mu);
      if (!s.primary.empty() || !s.spec.empty()) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t tree_size() const noexcept {
    return nodes_.size();
  }

  /// Diagnostic dump of all unfinished, non-dead nodes, grouped under a
  /// per-shard occupancy summary (used by the executors' stall reports; see
  /// tests/core/engine_test.cpp).  Takes every engine lock; callers must
  /// hold none.
  void debug_dump_unfinished(std::FILE* out) const {
    std::scoped_lock clk(combine_mu_);
    for (const Shard& s : shards_) s.mu.lock();
    std::vector<std::size_t> unfinished(shards_.size(), 0);
    for (std::uint32_t id = 0; id < nodes_.size(); ++id)
      if (!nodes_[id].finished && !is_dead(id)) ++unfinished[home_shard(id)];
    for (std::size_t s = 0; s < shards_.size(); ++s)
      std::fprintf(out,
                   "shard %zu: primary %zu spec %zu unfinished %zu\n", s,
                   shards_[s].primary.size(), shards_[s].spec.size(),
                   unfinished[s]);
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.finished || is_dead(id)) continue;
      std::fprintf(
          out,
          "node %u shard %zu parent %d ply %d type %d value %d gen %d fin %d "
          "elder %d d %d e_ch %d partial %d expanded %d inprim %d inflight %d "
          "first_e %d e_eval %d seqref %d\n",
          id, home_shard(id), static_cast<int>(n.parent), n.ply,
          static_cast<int>(static_cast<NodeType>(n.type)),
          static_cast<int>(static_cast<Value>(n.value)), n.generated(),
          n.finished_children(), n.elder_done(), child_count(n),
          n.e_children(), n.partial() ? 1 : 0, n.expanded() ? 1 : 0,
          n.in_primary ? 1 : 0, n.in_flight ? 1 : 0,
          n.first_e_selected() ? 1 : 0, n.e_child_evaluated() ? 1 : 0,
          static_cast<int>(n.seq_refuting()));
    }
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it)
      it->mu.unlock();
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kMaxShards = 256;
  static constexpr int kSpinsBeforeYield = 256;

  // --- flat-combining machinery -------------------------------------------

  /// Publish a record to shard `shard`'s apply list.  Takes only the
  /// shard's leaf publish lock — never its queue lock — so a publish never
  /// waits behind a long apply or refill.
  void publish(ApplyRecord& rec, std::size_t shard, std::uint32_t arg) {
    rec.ticket = publish_ticket_.fetch_add(1, std::memory_order_relaxed);
    // Gate counter for drain_round_with: incremented *before* the push, so
    // it over-counts transiently (a combiner may snapshot fewer records
    // than the count suggests) but never misses a record already in a
    // list — and a publisher's own drain always sees its own increment,
    // which is what combine_until_applied's post-drain check relies on.
    published_pending_.fetch_add(1, std::memory_order_release);
    {
      std::scoped_lock lk(shards_[shard].pending_mu);
      shards_[shard].pending.push_back(&rec);
    }
    trace_publish(shard, arg);
  }

  /// Block until `applied`: either a concurrent combiner applies the
  /// record (returns true), or this thread takes combine_mu_ and drains
  /// (returns false).  One drain round suffices for the caller's own
  /// record: collection and application happen under a single combine_mu_
  /// hold, so a still-unapplied record is still in some publish list and
  /// the snapshot picks it up.
  bool combine_until_applied(std::atomic<bool>& applied) {
    const auto t0 = Clock::now();
    int spins = 0;
    for (;;) {
      if (applied.load(std::memory_order_acquire)) {
        note_publisher_wait(t0, /*peer=*/true);
        return true;
      }
      if (combine_mu_.try_lock()) {
        if (applied.load(std::memory_order_acquire)) {
          combine_mu_.unlock();
          note_publisher_wait(t0, /*peer=*/true);
          return true;
        }
        note_publisher_wait(t0, /*peer=*/false);
        drain_round();
        combine_mu_.unlock();
        ERS_CHECK(applied.load(std::memory_order_acquire));
        return false;
      }
      if (++spins >= kSpinsBeforeYield) {
        spins = 0;
        std::this_thread::yield();
      } else {
        spin_pause();
      }
    }
  }

  void apply_deferred_finish(const DeferredFinish& d) {
    std::atomic<bool> applied{false};
    ApplyRecord rec;
    rec.kind = ApplyRecord::Kind::kFinish;
    rec.finish_node = d.node;
    rec.traced_cutoff = d.traced;
    rec.applied = &applied;
    publish(rec, home_shard(d.node), /*arg=*/0);
    combine_until_applied(applied);
  }

  /// One flat-combining round; requires combine_mu_.  Snapshot every
  /// shard's publish list, sort by publish ticket, and apply each record
  /// under its own (possibly frontier-truncated) lock section.
  void drain_round() { drain_round_with(nullptr); }

  /// One combine round, optionally carrying the combiner's own unpublished
  /// record: `extra` (if non-null) is ticketed *after* the snapshot and
  /// applied with it, exactly as if it had been published last — the
  /// commit_batch fast path rides this to skip the pending-queue
  /// round-trip when the combine lock is free.  Caller holds combine_mu_.
  ///
  /// Records are applied back to back in ticket order, but each under its
  /// *own* lock section: a record touching only deep shards never waits
  /// for, or holds, the shards of its high ancestors (DESIGN.md §13).
  /// Per-record sections cost one lock pass per record instead of one per
  /// round; the sequential fast path (try_lock + drain_round_with(&rec))
  /// carries exactly one record, so the single-threaded schedule and lock
  /// count are unchanged.
  void drain_round_with(ApplyRecord* extra) {
    scratch_records_.clear();
    // Skip the per-shard pending-list sweep when nothing is published —
    // the common case for an uncontended try_commit_batch, where paying S
    // leaf-lock round-trips per commit would dwarf the apply itself.
    if (published_pending_.load(std::memory_order_acquire) != 0) {
      for (Shard& sh : shards_) {
        std::scoped_lock plk(sh.pending_mu);
        scratch_records_.insert(scratch_records_.end(), sh.pending.begin(),
                                sh.pending.end());
        sh.pending.clear();
      }
      if (!scratch_records_.empty())
        published_pending_.fetch_sub(scratch_records_.size(),
                                     std::memory_order_relaxed);
    }
    if (extra != nullptr) {
      extra->ticket = publish_ticket_.fetch_add(1, std::memory_order_relaxed);
      scratch_records_.push_back(extra);
    }
    if (scratch_records_.empty()) return;
    std::sort(scratch_records_.begin(), scratch_records_.end(),
              [](const ApplyRecord* a, const ApplyRecord* b) {
                return a->ticket < b->ticket;
              });
    std::uint64_t entries = 0;
    const std::size_t nrecords = scratch_records_.size();
    for (ApplyRecord* r : scratch_records_) {
      if (r->kind == ApplyRecord::Kind::kCommit) entries += r->entries.size();
      apply_record_locked(*r);
    }
    combine_batches_ += 1;
    combine_records_ += nrecords;
    combine_entries_ += entries;
    trace_combine_batch(nrecords);
    if (cfg_.spec_control.budget || cfg_.spec_control.steal_feedback)
      refresh_spec_control();
  }

  /// Combiner-side speculation-control refresh (requires combine_mu_):
  /// decay the per-shard steal-pressure signals and recompute the
  /// speculation budget from the waste ledger's running speculative-loss
  /// share — the fraction of committed units that landed in subtrees
  /// later killed by bound changes or sibling resolutions.  When the
  /// share exceeds spec_control.waste_target the budget shrinks
  /// proportionally (never below budget_min); at or under target every
  /// shard runs at budget_max.
  void refresh_spec_control() {
    if (cfg_.spec_control.steal_feedback) {
      for (Shard& sh : shards_) {
        const std::uint64_t p =
            sh.steal_pressure.load(std::memory_order_relaxed);
        if (p != 0)
          sh.steal_pressure.store(p - (p >> 3) - (p < 8 ? 1 : 0),
                                  std::memory_order_relaxed);
      }
    }
    if (!cfg_.spec_control.budget) return;
    std::uint64_t spec_units = 0;
    for (std::size_t b = 0; b < kWastePlyBands; ++b)
      spec_units +=
          waste_.units[static_cast<std::size_t>(WasteCause::kBoundChange)][b] +
          waste_.units[static_cast<std::size_t>(
              WasteCause::kSiblingResolution)][b];
    const std::uint64_t total = stats_.units_processed;
    auto budget = static_cast<std::uint32_t>(cfg_.spec_control.budget_max);
    if (total >= 64) {  // skip the noisy warmup
      const double share =
          static_cast<double>(spec_units) / static_cast<double>(total);
      if (share > cfg_.spec_control.waste_target) {
        const double scaled = cfg_.spec_control.budget_max *
                              cfg_.spec_control.waste_target / share;
        budget = static_cast<std::uint32_t>(std::max(
            static_cast<double>(cfg_.spec_control.budget_min), scaled));
      }
    }
    for (Shard& sh : shards_)
      sh.spec_budget.store(budget, std::memory_order_relaxed);
  }

  /// Compute one record's touch set (truncated per entry where eligible),
  /// lock it ascending, apply, unlock.  Requires combine_mu_.
  void apply_record_locked(ApplyRecord& r) {
    const std::size_t S = shards_.size();
    scratch_touch_.assign(S, 0);
    bool truncated = false;
    if (r.kind == ApplyRecord::Kind::kCommit) {
      for (const CommitEntry& e : r.entries)
        truncated |= mark_touch_for_commit(e.item.node, scratch_touch_.data());
    } else {
      truncated = mark_touch_for_commit(r.finish_node, scratch_touch_.data());
    }
    scratch_locks_.clear();
    for (std::size_t s = 0; s < S; ++s)
      if (scratch_touch_[s] != 0) scratch_locks_.push_back(s);
    if (truncated) ++truncated_records_;
    const auto t0 = Clock::now();
    lock_ascending(scratch_locks_);
    const auto t1 = Clock::now();
    apply_record(r);
    const auto t2 = Clock::now();
    multi_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    multi_wait_ns_.fetch_add(delta_ns(t0, t1), std::memory_order_relaxed);
    multi_hold_ns_.fetch_add(delta_ns(t1, t2), std::memory_order_relaxed);
    unlock_descending(scratch_locks_);
    trace_lock_section(t0, t1, t2, obs::kNoTraceShard);
  }

  void apply_record(ApplyRecord& r) {
    if (r.kind == ApplyRecord::Kind::kCommit) {
      for (CommitEntry& e : r.entries) {
        apply_frontier_ =
            truncation_eligible(e.item.node) ? cfg_.publish_frontier : 0;
        commit_one(e.item, std::move(e.result));
        apply_frontier_ = 0;
        resolve_deferred_backup();
      }
    } else {
      ++stats_.cutoffs_at_pop;
      if (r.traced_cutoff)
        trace_instant(obs::EventKind::kSpecCancel, r.finish_node, /*arg=*/1);
      Node& n = nodes_[r.finish_node];
      // Re-check: another combiner may have finished this node (or an
      // ancestor) since the cutoff was detected at pop time; finishing
      // twice would double-count finished_children at the parent.  The
      // cutoff itself cannot have become invalid — bounds only tighten.
      if (!n.finished && !is_dead(r.finish_node)) {
        apply_frontier_ =
            truncation_eligible(r.finish_node) ? cfg_.publish_frontier : 0;
        finish_and_combine(r.finish_node, WasteCause::kBoundChange);
        apply_frontier_ = 0;
        resolve_deferred_backup();
      }
    }
    r.applied->store(true, std::memory_order_release);
  }

  /// A backup deferred at the frontier (finish_and_combine stopped at
  /// deferred_backup_, whose ply is above apply_frontier_): escalate to the
  /// node's *full* ancestor-chain lock set and resume exactly where the
  /// untruncated apply would have continued, before the record's next
  /// entry.  The escalation releases the truncated set entirely first, so
  /// every shard-lock acquisition in the engine remains one ascending pass
  /// from an empty hold set (see the invariant note in acquire_fill).
  /// Requires combine_mu_; the record's scratch_locks_ are held on entry
  /// and re-held on exit.
  void resolve_deferred_backup() {
    while (deferred_backup_ != kNoNode) {
      const std::uint32_t cont = deferred_backup_;
      deferred_backup_ = kNoNode;
      ++frontier_continuations_;
      unlock_descending(scratch_locks_);
      const std::size_t S = shards_.size();
      cont_touch_.assign(S, 0);
      mark_touch(cont, cont_touch_.data());
      cont_locks_.clear();
      for (std::size_t s = 0; s < S; ++s)
        if (cont_touch_[s] != 0) cont_locks_.push_back(s);
      const auto t0 = Clock::now();
      lock_ascending(cont_locks_);
      const auto t1 = Clock::now();
      // apply_frontier_ == 0: runs to completion, keeping the cause of the
      // finish whose backup was deferred.
      finish_and_combine(cont, deferred_backup_cause_);
      const auto t2 = Clock::now();
      multi_acquisitions_.fetch_add(1, std::memory_order_relaxed);
      multi_wait_ns_.fetch_add(delta_ns(t0, t1), std::memory_order_relaxed);
      multi_hold_ns_.fetch_add(delta_ns(t1, t2), std::memory_order_relaxed);
      unlock_descending(cont_locks_);
      trace_lock_section(t0, t1, t2, obs::kNoTraceShard);
      lock_ascending(scratch_locks_);
    }
  }

  /// Acquire the listed shard locks in ascending index order, starting
  /// from an empty hold set — the lock-order discipline shared with the
  /// global acquire scan (ERS_DCHECKed here; see acquire_fill).
  void lock_ascending(const std::vector<std::size_t>& locks) {
    ERS_DCHECK(combiner_held_shards_ == 0);
    for (std::size_t i = 0; i < locks.size(); ++i) {
      ERS_DCHECK(i == 0 || locks[i] > locks[i - 1]);
      shards_[locks[i]].mu.lock();
    }
#ifndef NDEBUG
    combiner_held_shards_ = locks.size();
#endif
  }

  void unlock_descending(const std::vector<std::size_t>& locks) {
#ifndef NDEBUG
    ERS_DCHECK(combiner_held_shards_ == locks.size());
    combiner_held_shards_ = 0;
#endif
    for (auto it = locks.rbegin(); it != locks.rend(); ++it)
      shards_[*it].mu.unlock();
  }

  /// True when a commit/finish on `id` may run with a frontier-truncated
  /// touch set: the frontier is enabled and the node lies at or below it,
  /// so every chain node above the frontier is reached only through the
  /// epoch-published word (reads) or a deferred continuation (writes).
  [[nodiscard]] bool truncation_eligible(std::uint32_t id) const {
    return cfg_.publish_frontier > 0 &&
           nodes_[id].ply >= cfg_.publish_frontier;
  }

  /// Mark the home shard of `a` and of its children — the shards where a
  /// combiner mutating `a`'s plain fields or pushing `a`/its children
  /// needs the lock.  Under kParentMod that is fold(parent(a)) ∪ fold(a);
  /// under kSubtreeAffinity a node and its children share one subtree
  /// shard, except the root whose children span every shard.
  void mark_node_and_children(std::uint32_t a, std::uint8_t* seen) const {
    const std::size_t S = shards_.size();
    seen[home_shard(a)] = 1;
    if (cfg_.placement == PlacementMode::kSubtreeAffinity) {
      if (a == 0) {
        for (std::size_t s = 0; s < S; ++s) seen[s] = 1;
      } else {
        seen[subtree_shard_of(a, nodes_[a].subtree, S)] = 1;
      }
    } else {
      seen[fold_shard(a, S)] = 1;
    }
  }

  /// Mark every shard a commit/finish on `id` may touch — the home shards
  /// of every chain node and of their children (the full footprint of
  /// commit + combine + Table 2).
  void mark_touch(std::uint32_t id, std::uint8_t* seen) const {
    for (std::uint32_t a = id; a != kNoNode; a = nodes_[a].parent)
      mark_node_and_children(a, seen);
  }

  /// Commit-path marks: the frontier-truncated set when eligible (returns
  /// true), else the full set (returns false).
  ///
  /// Frontier-depth invariant (DESIGN.md §13): with deferral stopping
  /// finish_and_combine at ply < F, an eligible apply touches plain fields
  /// or queues only of chain nodes at ply >= F-2 and their children —
  /// every backup iteration runs at ply(cur) >= F and writes its parent
  /// (ply >= F-1); the stop case additionally writes the grandparent's
  /// elder accounting and reconsiders it, reaching ply >= F-2 and pushes
  /// of its children.  So marking home(a) ∪ child_homes(a) for chain nodes
  /// with ply(a) >= F-2 covers the whole truncated footprint.
  [[nodiscard]] bool mark_touch_for_commit(std::uint32_t id,
                                           std::uint8_t* seen) const {
    if (!truncation_eligible(id)) {
      mark_touch(id, seen);
      return false;
    }
    const std::int32_t floor_ply = cfg_.publish_frontier - 2;
    for (std::uint32_t a = id;
         a != kNoNode && nodes_[a].ply >= floor_ply;
         a = nodes_[a].parent)
      mark_node_and_children(a, seen);
    return true;
  }

  // --- commit application (current combiner only: combine_mu_ plus every
  // --- touched shard lock held) -------------------------------------------

  void commit_one(const WorkItem& item, ComputeResult&& r) {
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
        // Pairs with the fetch_add at emission: every acquired kPromote is
        // committed exactly once, even when the state moved on meanwhile.
        shards_[home_shard(item.node)].spec_inflight.fetch_sub(
            1, std::memory_order_relaxed);
        commit_promotion(item.node);
        break;
      case WorkKind::kSerialFull:
      case WorkKind::kSerialRefuteRest:
      case WorkKind::kSerialRefute:
        ++stats_.serial_units;
        n.value = std::max<Value>(n.value, r.value);
        publish_node(item.node);
        finish_and_combine(item.node, WasteCause::kSiblingResolution);
        break;
      case WorkKind::kSerialEvalFirst:
        commit_eval_first(item.node, std::move(r));
        break;
      case WorkKind::kExpand:
        commit_expand(item.node, std::move(r));
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
        return {c == kNoNode ? kValueInf : static_cast<Value>(nodes_[c].value),
                n.ply};
      }
      case SpecRankPolicy::kFifo:
        return {0, 0};
      case SpecRankPolicy::kStealAware: {
        // Composite rank (DESIGN.md §17).  Primary: how much headroom the
        // best promotion candidate still has above the node's published
        // alpha — a candidate whose tentative promise the sibling bounds
        // (§13 epoch words) have already overtaken is almost certainly
        // wasted speculation, so it ranks late; a candidate with room to
        // raise the parent ranks early.  Secondary: the home shard's
        // decaying steal-pressure bucket — a shard whose primary work is
        // being stolen is already oversubscribed, so its speculation
        // yields.  Tiebreaks keep the paper's own heuristic (fewest
        // e-children, then shallower ply).  Every input is an epoch-
        // published or relaxed read; under the sim executor steal
        // pressure is identically zero and the rank is deterministic.
        const std::uint32_t c = best_promotion_candidate(n);
        constexpr std::int64_t kDistCap = 0xffff;
        std::int64_t closeness = kDistCap;  // no candidate: rank last
        if (c != kNoNode) {
          const Window w = window_of(id);
          const std::int64_t headroom =
              static_cast<std::int64_t>(
                  negate(static_cast<Value>(nodes_[c].value))) -
              static_cast<std::int64_t>(w.alpha);
          closeness =
              kDistCap - std::clamp<std::int64_t>(headroom, 0, kDistCap);
        }
        std::int64_t pressure = 0;
        if (cfg_.spec_control.steal_feedback) {
          std::uint64_t p = shards_[home_shard(id)].steal_pressure.load(
              std::memory_order_relaxed);
          while (p != 0 && pressure < 15) {  // log2 bucket, clamped
            p >>= 1;
            ++pressure;
          }
        }
        return {(closeness << 16) + (pressure << 8),
                (static_cast<std::int64_t>(n.e_children()) << 8) +
                    std::min<std::int64_t>(n.ply, 255)};
      }
    }
    return {0, 0};
  }

  // --- queue helpers (combiner only, except the single-threaded ctor) -----

  void push_primary(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.in_primary || n.in_flight || n.finished) return;
    n.in_primary = true;
    shards_[home_shard(id)].primary.push(PrimaryEntry{
        n.ply, seq_.fetch_add(1, std::memory_order_relaxed), id});
  }

  void push_spec(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.on_spec() || n.finished) return;
    ColdRecord* c = checked_cold(n);  // spec-eligible nodes are expanded
    c->on_spec = true;
    ++c->spec_seq;
    const auto [k1, k2] = spec_keys_for(id);
    shards_[home_shard(id)].spec.push(SpecEntry{
        k1, k2, seq_.fetch_add(1, std::memory_order_relaxed), id,
        c->spec_seq});
  }

  // --- predicates ---------------------------------------------------------

  /// Which serial unit a cutover node needs, per its current role (see
  /// WorkKind).  A node with a tentative value from an earlier Eval_first
  /// unit continues with Refute_rest whether it was promoted to e-child or
  /// re-typed for refutation — exactly Figure 8's two halves.
  [[nodiscard]] WorkKind serial_kind(const Node& n) const {
    if (n.ply >= cfg_.search_depth) return WorkKind::kSerialFull;  // horizon
    if (n.partial()) return WorkKind::kSerialRefuteRest;
    switch (static_cast<NodeType>(n.type)) {
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
  /// Ancestor values are relaxed-atomic reads: a stale (lower) value gives
  /// a wider window, which is sound (monotone values only narrow windows).
  [[nodiscard]] Window window_of(std::uint32_t id) const {
    // Collected on the stack: this runs on every combine-step cutoff check,
    // and search depths are tiny (the horizon bounds the path length).
    std::array<std::uint32_t, 64> path;  // id's ancestors, root last
    std::size_t depth = 0;
    for (std::uint32_t a = nodes_[id].parent; a != kNoNode; a = nodes_[a].parent) {
      ERS_CHECK(depth < path.size());
      path[depth++] = a;
    }
    const int frontier = cfg_.publish_frontier;
    if (frontier <= 0) {
      Window w = full_window();
      while (depth-- > 0) {
        const Value alpha = std::max<Value>(w.alpha, nodes_[path[depth]].value);
        w = Window{negate(w.beta), negate(alpha)};
      }
      return w;
    }
    // Epoch-validated read (DESIGN.md §13): ancestors above the frontier
    // are read through their published word; if any published epoch moved
    // while folding, retry for a consistent snapshot.  Bounded retries —
    // an abandoned (torn) snapshot is still sound: values are monotone, so
    // any mix of older values yields a wider (weaker) window.
    for (int attempt = 0;; ++attempt) {
      std::uint64_t epoch_sum = 0;
      Window w = full_window();
      for (std::size_t i = depth; i-- > 0;) {
        const std::uint32_t a = path[i];
        Value v;
        if (nodes_[a].ply < frontier) {
          const std::uint64_t word =
              nodes_[a].pub.load(std::memory_order_acquire);
          epoch_sum += pub_epoch(word);
          v = pub_value(word);
        } else {
          v = nodes_[a].value;
        }
        const Value alpha = std::max<Value>(w.alpha, v);
        w = Window{negate(w.beta), negate(alpha)};
      }
      std::uint64_t check_sum = 0;
      for (std::size_t i = depth; i-- > 0;) {
        const std::uint32_t a = path[i];
        if (nodes_[a].ply >= frontier) break;  // high ancestors end rootward
        check_sum += pub_epoch(nodes_[a].pub.load(std::memory_order_acquire));
      }
      if (check_sum == epoch_sum || attempt >= 2) return w;
      validate_retries_.fetch_add(1, std::memory_order_relaxed);
      trace_epoch_retry(id);
    }
  }

  [[nodiscard]] Value beta_of(std::uint32_t id) const {
    return window_of(id).beta;
  }

  /// A node is dead when some proper ancestor has finished (its subtree was
  /// abandoned: speculative loss).  Ancestors above the frontier are read
  /// through their published word (no validation loop: finished is sticky,
  /// so a stale read only delays the drop).  A false negative only lets a
  /// doomed unit run (its commit is discarded); a false positive is
  /// impossible, finished only ever transitions false -> true.
  [[nodiscard]] bool is_dead(std::uint32_t id) const {
    const int frontier = cfg_.publish_frontier;
    for (std::uint32_t a = nodes_[id].parent; a != kNoNode;
         a = nodes_[a].parent) {
      const Node& n = nodes_[a];
      const bool fin =
          frontier > 0 && n.ply < frontier
              ? pub_finished(n.pub.load(std::memory_order_acquire))
              : static_cast<bool>(n.finished);
      if (fin) return true;
    }
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
      if (best == kNoNode || static_cast<Value>(nodes_[c].value) <
                                 static_cast<Value>(nodes_[best].value))
        best = c;
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
  void commit_eval_first(std::uint32_t id, ComputeResult&& r) {
    Node& n = nodes_[id];
    ++stats_.serial_units;
    n.value = std::max<Value>(n.value, r.value);
    publish_node(id);
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

  void commit_expand(std::uint32_t id, ComputeResult&& r) {
    Node& n = nodes_[id];
    if (r.positions_computed) {
      if (r.is_leaf) {
        // Terminal position above the cutover: a true leaf of the game —
        // no expansion payload to store (finished nodes never have their
        // expansion state consulted).
        n.value = std::max<Value>(n.value, r.value);
        publish_node(id);
        finish_and_combine(id, WasteCause::kSiblingResolution);
        return;
      }
      attach_cold(id, r.child_positions);
      n.cold->expanded = true;
    }
    ColdRecord* c = checked_cold(n);
    ERS_CHECK(c->expanded);
    switch (static_cast<NodeType>(n.type)) {
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
    // Arena slots never move: growth never invalidates existing references,
    // and the id only becomes visible to other shards through the queue
    // push below (under the child's home-shard lock, held by this combiner).
    // Subtree tag: a root child starts its own top-level subtree; every
    // deeper node inherits its parent's (kSubtreeAffinity placement).
    const std::uint32_t subtree =
        parent_id == 0 ? static_cast<std::uint32_t>(index) : p.subtree;
    const std::uint32_t child_id =
        make_node(pc->positions()[index], parent_id, p.ply + 1, type, index,
                  subtree);
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
      // Frontier deferral (DESIGN.md §13): a truncated apply section holds
      // no locks above the frontier, so a backup about to finish a high
      // node stops here; apply_record resolves it immediately as a
      // continuation under the full chain lock set, in exactly the
      // position the untruncated apply would have run this iteration —
      // the mutation sequence, and hence the committed-state sequence, is
      // identical with the frontier on or off.
      if (apply_frontier_ > 0 && nodes_[cur].ply < apply_frontier_) {
        ERS_DCHECK(deferred_backup_ == kNoNode);
        deferred_backup_ = cur;
        deferred_backup_cause_ = cause;
        return;
      }
      Node& n = nodes_[cur];
      n.finished = true;
      n.set_on_spec(false);  // lazily invalidates any spec entry
      publish_node(cur);
      // The finish kills cur's subtree: reclaim cur's own cold record and
      // the records of its freshly dead unfinished children (their home
      // shards are in every touch set that covers cur's —
      // mark_node_and_children).  In-flight records are skipped; their
      // commit_one reclaims on landing.  Deeper dead descendants are
      // reclaimed lazily at their own pops and commits.
      reclaim_finished(cur, cause);
      if (cur == 0) {
        done_ = true;
        return;
      }
      const std::uint32_t pid = n.parent;
      Node& p = nodes_[pid];
      if (p.finished) return;  // abandoned subtree; result discarded
      if (negate(n.value) > p.value) {
        p.value = negate(n.value);
        p.best_child = cur;  // strict raise: an exactly-evaluated child
        publish_node(pid);
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
    switch (static_cast<NodeType>(n.type)) {
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
    // order after its sort).  Combiner-owned scratch (dispatch never
    // re-enters itself): no per-dispatch allocation at steady state.
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
                       return static_cast<Value>(nodes_[a].value) <
                              static_cast<Value>(nodes_[b].value);
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

  // --- epoch publication (DESIGN.md §13) ------------------------------------

  /// The published word packs a high node's cross-shard-visible state into
  /// one atomic: {epoch:31, finished:1, value:32}.  The epoch counts
  /// publications, so a reader summing epochs before and after a multi-word
  /// read can detect any intervening publication (window_of).
  [[nodiscard]] static constexpr std::uint64_t pack_pub(
      Value v, bool finished, std::uint64_t epoch) noexcept {
    return (epoch << 33) |
           (static_cast<std::uint64_t>(finished ? 1 : 0) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  }
  [[nodiscard]] static constexpr Value pub_value(std::uint64_t w) noexcept {
    return static_cast<Value>(static_cast<std::uint32_t>(w));
  }
  [[nodiscard]] static constexpr bool pub_finished(std::uint64_t w) noexcept {
    return ((w >> 32) & 1) != 0;
  }
  [[nodiscard]] static constexpr std::uint64_t pub_epoch(
      std::uint64_t w) noexcept {
    return w >> 33;
  }

  /// Publish a high node's (value, finished) after a mutation — the
  /// dedicated root/near-root raise path.  A CAS loop with re-validation:
  /// each iteration re-derives the next word from the currently published
  /// one, keeping the published value monotone and finished sticky no
  /// matter how the loop interleaves with future publishers (today there
  /// is exactly one publisher at a time — the combiner — but the protocol
  /// does not rely on that).  No-op for nodes at or below the frontier.
  /// Called by the combiner immediately after every (value, finished)
  /// mutation site, so the word is never behind the locked state by more
  /// than the width of one publish.
  void publish_node(std::uint32_t id) {
    Node& n = nodes_[id];
    if (cfg_.publish_frontier <= 0 || n.ply >= cfg_.publish_frontier) return;
    const Value v = n.value;
    const bool fin = n.finished;
    std::uint64_t cur = n.pub.load(std::memory_order_relaxed);
    for (;;) {
      const Value nv = std::max<Value>(v, pub_value(cur));
      const bool nf = fin || pub_finished(cur);
      const std::uint64_t next = pack_pub(nv, nf, pub_epoch(cur) + 1);
      if (n.pub.compare_exchange_weak(cur, next, std::memory_order_release,
                                      std::memory_order_relaxed))
        break;
      ++root_publish_retries_;
    }
    ++root_publishes_;
    trace_instant(obs::EventKind::kEpochPublish, id,
                  static_cast<std::uint32_t>(pub_epoch(
                      n.pub.load(std::memory_order_relaxed))));
  }

  /// Reader-side validation-retry trace hook (window_of is const and runs
  /// on acquiring threads, so this writes the calling worker's own ring,
  /// like trace_publish).
  void trace_epoch_retry(std::uint32_t node) const {
    if constexpr (!obs::kTracingEnabled) {
      (void)node;
      return;
    }
    if (cfg_.trace == nullptr || cfg_.trace->virtual_clock()) return;
    if (obs::Tracer* t = obs::TraceSession::thread_tracer(); t != nullptr)
      t->instant(obs::EventKind::kEpochRetry, cfg_.trace->now_ns(), node,
                 /*arg=*/0);
  }

  // --- tracing & timing hooks ----------------------------------------------

  /// Combiner-side trace hook (the engine tracer); a no-op without a
  /// session and compiled out entirely when tracing is disabled.  Safe
  /// because there is exactly one combiner at a time and combiner handoff
  /// synchronizes through combine_mu_.  The single-threaded simulator
  /// re-points the engine tracer to its current virtual worker before
  /// driving commits, exactly as before.
  void trace_instant(obs::EventKind kind, std::uint32_t node,
                     std::uint32_t arg) {
    if constexpr (!obs::kTracingEnabled) {
      (void)kind; (void)node; (void)arg;
      return;
    }
    if (cfg_.trace == nullptr) return;
    cfg_.trace->engine_tracer().instant(
        kind, cfg_.trace->now_ns(), node, arg,
        static_cast<std::uint16_t>(home_shard(node)));
  }

  /// Ledger side of a dead queue-entry drop (primary or speculative);
  /// caller holds `owner`'s shard lock, like dead_drops.
  void note_dead_drop(std::size_t owner, std::uint32_t node) {
    const std::size_t b =
        waste_band_of(static_cast<std::uint32_t>(nodes_[node].ply));
    shards_[owner].waste_drops[b].fetch_add(1, std::memory_order_relaxed);
  }

  /// kUnitCommit with the executor-measured compute duration in `dur`
  /// (trace-side waste reconciliation sums these; see commit_one).
  /// Combiner-side like trace_instant.
  void trace_commit(std::uint32_t node, std::uint32_t arg, std::uint64_t dur) {
    if constexpr (!obs::kTracingEnabled) {
      (void)node; (void)arg; (void)dur;
      return;
    }
    if (cfg_.trace == nullptr) return;
    cfg_.trace->engine_tracer().record(
        obs::EventKind::kUnitCommit, cfg_.trace->now_ns(), dur, node, arg,
        static_cast<std::uint16_t>(home_shard(node)));
  }

  void trace_combine_batch(std::size_t records) {
    if constexpr (!obs::kTracingEnabled) {
      (void)records;
      return;
    }
    if (cfg_.trace == nullptr) return;
    cfg_.trace->engine_tracer().instant(obs::EventKind::kCombineBatch,
                                        cfg_.trace->now_ns(), obs::kNoTraceNode,
                                        static_cast<std::uint32_t>(records));
  }

  /// Acquire-side trace hook: the per-shard ring, written only while
  /// holding that shard's queue lock.
  void trace_shard_instant(std::size_t shard, obs::EventKind kind,
                           std::uint32_t node, std::uint32_t arg) {
    if constexpr (!obs::kTracingEnabled) {
      (void)shard; (void)kind; (void)node; (void)arg;
      return;
    }
    if (cfg_.trace == nullptr) return;
    cfg_.trace->shard_tracer(shard).instant(
        kind, cfg_.trace->now_ns(), node, arg,
        static_cast<std::uint16_t>(shard));
  }

  /// Publish-side trace hook: the calling worker's own ring (thread runtime
  /// only — the simulator and untraced runs have no thread tracer).
  void trace_publish(std::size_t shard, std::uint32_t arg) {
    if constexpr (!obs::kTracingEnabled) {
      (void)shard; (void)arg;
      return;
    }
    if (cfg_.trace == nullptr || cfg_.trace->virtual_clock()) return;
    if (obs::Tracer* t = obs::TraceSession::thread_tracer(); t != nullptr)
      t->instant(obs::EventKind::kCombinePublish, cfg_.trace->now_ns(),
                 obs::kNoTraceNode, arg, static_cast<std::uint16_t>(shard));
  }

  /// Counted lock sections mirror their (wait, hold) nanoseconds onto the
  /// calling worker's trace ring from the *same* clock readings the
  /// counters use, so traced span totals equal folded stats totals exactly
  /// (tests/obs).  Virtual-clock sessions suppress the spans: the simulator
  /// models lock time in its cost model, and steady-clock spans would
  /// corrupt its virtual timeline.
  void trace_lock_section(Clock::time_point t0, Clock::time_point t1,
                          Clock::time_point t2, std::uint16_t shard) {
    if constexpr (!obs::kTracingEnabled) {
      (void)t0; (void)t1; (void)t2; (void)shard;
      return;
    }
    if (cfg_.trace == nullptr || cfg_.trace->virtual_clock()) return;
    obs::Tracer* t = obs::TraceSession::thread_tracer();
    if (t == nullptr) return;
    t->span(obs::EventKind::kLockWaitSpan, cfg_.trace->to_ns(t0),
            cfg_.trace->to_ns(t1), obs::kNoTraceNode, 0, shard);
    t->span(obs::EventKind::kLockHoldSpan, cfg_.trace->to_ns(t1),
            cfg_.trace->to_ns(t2), obs::kNoTraceNode, 0, shard);
  }

  /// Publisher wait accounting: time blocked before either a peer applied
  /// the record or this thread became the combiner.  The combiner's own
  /// apply time is *not* wait — it is counted (and traced) by drain_round
  /// as a multi-lock section.
  void note_publisher_wait(Clock::time_point t0, bool peer) {
    const auto t1 = Clock::now();
    publisher_wait_ns_.fetch_add(delta_ns(t0, t1), std::memory_order_relaxed);
    if (peer) peer_applied_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kTracingEnabled) {
      if (cfg_.trace != nullptr && !cfg_.trace->virtual_clock()) {
        if (obs::Tracer* t = obs::TraceSession::thread_tracer(); t != nullptr)
          t->span(obs::EventKind::kLockWaitSpan, cfg_.trace->to_ns(t0),
                  cfg_.trace->to_ns(t1));
      }
    }
  }

  [[nodiscard]] static std::uint64_t delta_ns(Clock::time_point a,
                                              Clock::time_point b) noexcept {
    return b <= a ? 0
                  : static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            b - a)
                            .count());
  }

  static void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
  }

  // --- node storage (two-tier; DESIGN.md §15) -------------------------------

  /// Cold expansion record: everything a node needs only between its
  /// expansion and its finish — the frozen child positions, the child-node
  /// ids, and the ER phase bookkeeping.  Lives in the home shard's ColdSlab
  /// (Node::cold), touched only under that shard's lock except for the
  /// lock-free compute-phase reads on the node's *own* in-flight unit
  /// (kExpand's expanded check, kSerialRefuteRest's frozen child order),
  /// which the reclaimer's !in_flight guard keeps safe.  The child arrays
  /// are laid out inline after this header, sized at expansion:
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

  /// Hot per-node record: one cache line.  Everything the lock-free readers
  /// touch (window_of/is_dead epoch walks, promotion candidacy, pop
  /// filtering) lives here; the expansion payload hangs off `cold` and is
  /// reclaimed when the node finishes or its subtree dies (ColdRecord
  /// above).  The game position lives in the engine's id-parallel position
  /// arena, not in the node.
  struct Node {
    Node(std::uint32_t parent_id, int ply_at, NodeType ty,
         int index_in_parent, std::uint32_t subtree_tag)
        : parent(parent_id),
          ply(ply_at),
          child_index(index_in_parent),
          subtree(subtree_tag),
          type(ty) {}

    /// Epoch-published (value, finished) word for high nodes (ply <
    /// publish_frontier; see pack_pub).  Written by publish_node after
    /// every mutation; read lock-free by window_of/is_dead.  Stays at its
    /// initial state when the frontier is disabled or the node is deep.
    std::atomic<std::uint64_t> pub{pack_pub(-kValueInf, false, 0)};
    /// Cold expansion record in the home shard's slab — null before
    /// expansion and again after reclamation.  Written under the home
    /// shard's lock; the only lock-free readers are compute() calls on this
    /// node's own in-flight unit, which exclude every writer (attach and
    /// reclaim both refuse in-flight nodes).
    ColdRecord* cold = nullptr;

    std::uint32_t parent;      ///< immutable; lock-free chain walks rely on it
    std::int32_t ply;          ///< immutable
    std::int32_t child_index;  ///< immutable; index within the parent's child list
    std::uint32_t subtree;     ///< immutable; root-child ancestor's child index
                               ///< (0 for the root) — kSubtreeAffinity placement
    std::uint32_t best_child = kNoNode;  ///< child that last raised value

    // Cross-shard-readable fields (relaxed atomics, written under the
    // owner's home-shard lock; see the header's concurrency model).
    Shared<Value> value{-kValueInf};  ///< monotone tentative value, own perspective
    Shared<NodeType> type;
    Shared<bool> finished{false};     ///< subtree resolved (evaluated or refuted)
    Shared<bool> in_primary{false};   ///< a live entry exists in the primary queue
    Shared<bool> in_flight{false};    ///< a worker holds this node
    Shared<bool> elder_counted{false};///< contributed to parent's elder_done

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
  /// id-parallel position arena.  One writer — the current combiner —
  /// appends; concurrent readers index slots they learned about through a
  /// shard lock, which is what publishes both the chunk pointer and the
  /// constructed element (ids only escape via queue entries pushed under
  /// shard locks after construction, and parents are constructed before
  /// children).  A deque would be the natural container, but its internal
  /// chunk map reallocates on growth and a concurrent operator[] would
  /// race; here the chunk-pointer table is preallocated and never moves.
  /// Nodes hold atomics, so slots are placement-new constructed in place
  /// and never moved or copied.
  template <typename T>
  class StableArena {
   public:
    StableArena() : chunks_(kMaxChunks) {}
    ~StableArena() {
      const std::size_t n = size_.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < n; ++i) slot(i)->~T();
    }
    StableArena(const StableArena&) = delete;
    StableArena& operator=(const StableArena&) = delete;

    template <typename... Args>
    std::uint32_t emplace(Args&&... args) {
      const std::size_t i = size_.load(std::memory_order_relaxed);
      const std::size_t c = i >> kChunkShift;
      ERS_CHECK(c < chunks_.size());
      if (chunks_[c] == nullptr) chunks_[c] = std::make_unique<Chunk>();
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
    static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;  // 16.7M slots
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
                          NodeType ty, int index_in_parent,
                          std::uint32_t subtree) {
    const std::uint32_t id =
        nodes_.emplace(parent, ply, ty, index_in_parent, subtree);
    const std::uint32_t pid = positions_.emplace(pos);
    ERS_CHECK(pid == id);
    // Waste-ledger side arrays stay id-parallel with the arenas.  Callers
    // are the single-threaded constructor and combiner commits, the same
    // writers the arenas have; the arrays are only ever read by the
    // combiner (commit_one / reclaim_finished, under combine_mu_).
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
  /// `children` child slots from the node's home-shard slab.  Requires the
  /// home shard's lock — every caller is inside an apply section whose
  /// touch set includes it.
  [[nodiscard]] ColdRecord* alloc_cold(std::uint32_t id, std::size_t children) {
    static_assert(alignof(Position) <= alignof(std::max_align_t),
                  "slab chunks only guarantee fundamental alignment");
    static_assert(std::is_trivially_destructible_v<ColdRecord>);
    ERS_DCHECK(children >= 1);
    const auto need = static_cast<std::uint32_t>(children);
    const std::uint8_t cls = size_class_for(need);
    const std::uint32_t cap = cls == kHeapClass ? need : (1u << cls);
    const std::size_t bytes = ColdRecord::bytes_for(cap);
    Shard& sh = shards_[home_shard(id)];
    void* mem =
        cls == kHeapClass ? ::operator new(bytes) : sh.slab.take(cls, bytes);
    auto* rec = ::new (mem) ColdRecord();
    rec->size_class = cls;
    rec->capacity = cap;
    ++sh.cold_allocated;
    ++sh.cold_live;
    return rec;
  }

  /// Freeze `kids` as `id`'s child order in a fresh cold record.  The
  /// positions are *copied* — the compute buffer keeps its capacity and is
  /// recycled by the executor (compute_into).
  void attach_cold(std::uint32_t id, std::vector<Position>& kids) {
    Node& n = nodes_[id];
    ERS_DCHECK(n.cold == nullptr);
    ColdRecord* c = alloc_cold(id, kids.size());
    Position* ps = c->positions();
    std::uint32_t* cn = c->child_nodes();
    for (std::size_t i = 0; i < kids.size(); ++i) {
      ::new (static_cast<void*>(ps + i)) Position(kids[i]);
      cn[i] = kNoNode;
    }
    c->count = static_cast<std::uint32_t>(kids.size());
    n.cold = c;
  }

  /// Return `id`'s cold record to its home-shard slab: destroy the stored
  /// positions, poison the magic word (use-after-reclaim detection), and
  /// push the block onto its size-class freelist.  Requires the home
  /// shard's lock.  Refuses in-flight nodes — their compute phase may be
  /// reading the record lock-free — and commit_one re-runs the reclaim
  /// once the unit lands.  No-op when there is nothing attached.
  void reclaim_cold(std::uint32_t id) {
    Node& n = nodes_[id];
    ColdRecord* c = n.cold;
    if (c == nullptr || n.in_flight) return;
    ERS_DCHECK(c->magic == ColdRecord::kLiveMagic);
    n.cold = nullptr;
    Shard& sh = shards_[home_shard(id)];
    const std::uint8_t cls = c->size_class;
    Position* ps = c->positions();
    for (std::uint32_t i = 0; i < c->count; ++i) ps[i].~Position();
    c->magic = ColdRecord::kDeadMagic;  // poison survives in the freelist
    if (cls == kHeapClass)
      ::operator delete(c);
    else
      sh.slab.put(cls, c);
    --sh.cold_live;
    ++sh.cold_reclaimed;
  }

  /// Reclaim what a freshly finished node no longer needs: its own cold
  /// record and the records of the unfinished children its finish just
  /// killed (finished children already reclaimed at their own finish).
  /// Caller holds the finishing node's touch-set locks, which cover every
  /// child's home shard (mark_node_and_children).
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
  /// exactly these.  Requires combine_mu_ (the side tallies are
  /// combiner-owned).
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
  std::deque<Shard> shards_;  ///< deque: Shard is immovable (owns mutexes)
  /// Global push sequence for the LIFO/FIFO tiebreaks.  A relaxed atomic:
  /// pushes normally happen during single-threaded construction or inside
  /// combiner application (combine_mu_-serialized), but the speculation
  /// controller also re-pushes demoted entries at spec-pop time holding
  /// only the popped entry's shard locks, so the ticket counter must be
  /// race-free there.  Under the sim executor a single driver performs
  /// every push, so ticket order — and with it the pop schedule — stays
  /// deterministic.
  std::atomic<std::uint64_t> seq_{0};
  Shared<bool> done_{false};
  /// Combiner-owned aggregates (guarded by combine_mu_).
  EngineStats stats_;
  /// Wasted-work attribution ledger (DESIGN.md §16): the kill-cause cells
  /// are combiner-owned; waste_stats() folds the shard-side dead-drop
  /// tallies in on snapshot.
  EngineWasteStats waste_;
  /// Id-parallel ledger side arrays (combiner-owned, like the arenas'
  /// writes): per-node *uncharged* committed subtree work, and the
  /// cancelled-subtree mark (0 = live, else WasteCause + 1).
  std::vector<std::uint64_t> sub_units_;
  std::vector<std::uint64_t> sub_ns_;
  std::vector<std::uint8_t> waste_state_;
  std::uint64_t combine_batches_ = 0;
  std::uint64_t combine_records_ = 0;
  std::uint64_t combine_entries_ = 0;
  /// Epoch/frontier path counters (combiner-owned, guarded by combine_mu_).
  std::uint64_t truncated_records_ = 0;
  std::uint64_t frontier_continuations_ = 0;
  std::uint64_t root_publishes_ = 0;
  std::uint64_t root_publish_retries_ = 0;
  /// Reader-side epoch validation retries (window_of runs on any thread).
  mutable std::atomic<std::uint64_t> validate_retries_{0};
  /// Executor steal feedback accepted (note_steal; lock-free callers).
  std::atomic<std::uint64_t> steal_events_{0};
  /// Combiner entry state for the frontier deferral (combine_mu_ held):
  /// the deferral floor for the entry being applied (0 = no truncation)
  /// and the high node whose backup was deferred at that floor.
  std::int32_t apply_frontier_ = 0;
  std::uint32_t deferred_backup_ = kNoNode;
  /// Kill cause of the finish whose backup sits in deferred_backup_.
  WasteCause deferred_backup_cause_ = WasteCause::kSiblingResolution;
#ifndef NDEBUG
  /// Shard locks the current combiner section holds (lock_ascending /
  /// unlock_descending bookkeeping for the lock-order ERS_DCHECKs).
  std::size_t combiner_held_shards_ = 0;
#endif
  /// Multi-lock section counters.  Relaxed atomics: with frontier-truncated
  /// touch sets an apply section need not include shard 0, so the global
  /// acquire scan and the combiner no longer serialize through any one
  /// fixed shard mutex (see the invariant note in acquire_fill).
  std::atomic<std::uint64_t> multi_acquisitions_{0};
  std::atomic<std::uint64_t> multi_wait_ns_{0};
  std::atomic<std::uint64_t> multi_hold_ns_{0};
  /// Publisher-side counters (publishers hold no engine lock).
  std::atomic<std::uint64_t> publish_ticket_{0};
  std::atomic<std::uint64_t> published_pending_{0};
  std::atomic<std::uint64_t> peer_applied_{0};
  std::atomic<std::uint64_t> publisher_wait_ns_{0};
  /// The combiner lock: at most one thread drains/applies at a time.
  /// Lock hierarchy: combine_mu_, then shard queue locks in ascending
  /// index order; pending_mu is a leaf taken on its own.
  mutable std::mutex combine_mu_;
  /// Combiner scratch buffers (touched only under combine_mu_).
  std::vector<ApplyRecord*> scratch_records_;
  std::vector<std::uint8_t> scratch_touch_;
  std::vector<std::size_t> scratch_locks_;
  /// dispatch_refutations' undecided-children list (combiner-owned):
  /// reused across commits so refutation dispatch never allocates.
  std::vector<std::uint32_t> scratch_undecided_;
  /// Continuation-escalation scratch (resolve_deferred_backup) — separate
  /// from the record's own buffers, which must survive the escalation.
  std::vector<std::uint8_t> cont_touch_;
  std::vector<std::size_t> cont_locks_;
};

}  // namespace ers::core
