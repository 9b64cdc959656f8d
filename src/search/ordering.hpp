#pragma once
// Move-ordering policy (paper §7): "children were sorted according to values
// returned by the static evaluator.  Sorting was not performed below ply
// five.  Successors of e-nodes were also not sorted."
//
// A child with a *lower* static value (from its own side-to-move view) is
// better for the parent, so ordering sorts ascending.
//
// Beyond the paper (DESIGN.md §17): shared ordering *tables* — a lock-free
// butterfly history table and per-ply killer slots — refine the static sort
// when attached.  Both key on a position's 64-bit hash (HashedGame), so
// they are game-agnostic and shareable across every worker: all counters
// are relaxed atomics and deliberately advisory (a lost update costs a
// slightly worse sort, never correctness).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "gametree/game.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers {

/// 14-bit best-move fingerprint of a child position's hash key — what the
/// transposition tables store as TtHit::move_hint and what ordering matches
/// against each child.  0 doubles as "no hint", so the 1-in-16384 child
/// whose fingerprint is 0 simply never gets fronted (it still sorts by
/// value/history like any other move).
[[nodiscard]] constexpr std::uint16_t move_fingerprint(
    std::uint64_t key) noexcept {
  return static_cast<std::uint16_t>(key & 0x3fff);
}

/// Lock-free butterfly history table: relaxed-atomic counters indexed by a
/// position-key slice, rewarding moves (child positions) that caused beta
/// cutoffs anywhere in the tree.  Generation-aged like the transposition
/// tables: new_search() bumps a generation and stale slots read as 0 and
/// are overwritten on the next credit, so one long-lived table serves many
/// searches without unbounded counter growth.  Updates are load/store (not
/// CAS): racing writers may lose increments, which only perturbs an
/// advisory ordering signal.
class HistoryTable {
 public:
  /// 2^size_log2 slots of 4 bytes (default 2^15 = 128 KiB).
  explicit HistoryTable(int size_log2 = 15)
      : mask_((std::uint64_t{1} << size_log2) - 1),
        slots_(std::size_t{1} << size_log2) {
    ERS_CHECK(size_log2 >= 4 && size_log2 <= 24);
  }

  /// Credit `amount` (typically remaining_depth^2) to the move reaching
  /// the position hashed by `key`.
  void add(std::uint64_t key, std::uint32_t amount) noexcept {
    std::atomic<std::uint32_t>& s = slots_[key & mask_];
    const std::uint8_t gen = generation_.load(std::memory_order_relaxed);
    const std::uint32_t cur = s.load(std::memory_order_relaxed);
    const std::uint32_t base = slot_gen(cur) == gen ? slot_count(cur) : 0;
    const std::uint32_t next =
        base + amount >= kCountMask ? kCountMask : base + amount;
    s.store(pack(gen, next), std::memory_order_relaxed);
  }

  /// The move's accumulated credit this generation (0 if stale or unseen).
  [[nodiscard]] std::uint32_t probe(std::uint64_t key) const noexcept {
    const std::uint32_t cur =
        slots_[key & mask_].load(std::memory_order_relaxed);
    return slot_gen(cur) == generation_.load(std::memory_order_relaxed)
               ? slot_count(cur)
               : 0;
  }

  /// Age every slot out in O(1); safe concurrently with add/probe.
  void new_search() noexcept {
    generation_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  // Slot word: generation (high 8 bits) | saturating counter (low 24).
  static constexpr std::uint32_t kCountMask = 0x00ffffff;
  static constexpr std::uint32_t pack(std::uint8_t gen,
                                      std::uint32_t count) noexcept {
    return (static_cast<std::uint32_t>(gen) << 24) | (count & kCountMask);
  }
  static constexpr std::uint8_t slot_gen(std::uint32_t w) noexcept {
    return static_cast<std::uint8_t>(w >> 24);
  }
  static constexpr std::uint32_t slot_count(std::uint32_t w) noexcept {
    return w & kCountMask;
  }

  std::uint64_t mask_;
  std::vector<std::atomic<std::uint32_t>> slots_;
  std::atomic<std::uint8_t> generation_{0};
};

/// Per-ply killer slots: the last two distinct cutoff moves at each ply,
/// stored as full 64-bit position keys in relaxed atomics.  Shared across
/// workers; racing records interleave harmlessly (the slots always hold
/// *some* recent cutoff keys).
class KillerTable {
 public:
  static constexpr int kMaxPlies = 64;

  void record(int ply, std::uint64_t key) noexcept {
    if (key == 0) return;
    auto& [first, second] = slots_[clamp(ply)];
    const std::uint64_t f = first.load(std::memory_order_relaxed);
    if (f == key) return;
    second.store(f, std::memory_order_relaxed);
    first.store(key, std::memory_order_relaxed);
  }

  [[nodiscard]] bool is_killer(int ply, std::uint64_t key) const noexcept {
    if (key == 0) return false;
    const auto& [first, second] = slots_[clamp(ply)];
    return first.load(std::memory_order_relaxed) == key ||
           second.load(std::memory_order_relaxed) == key;
  }

  void clear() noexcept {
    for (auto& [first, second] : slots_) {
      first.store(0, std::memory_order_relaxed);
      second.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Pair {
    std::atomic<std::uint64_t> first{0};
    std::atomic<std::uint64_t> second{0};
  };
  [[nodiscard]] static std::size_t clamp(int ply) noexcept {
    return static_cast<std::size_t>(
        ply < 0 ? 0 : (ply >= kMaxPlies ? kMaxPlies - 1 : ply));
  }
  std::array<Pair, kMaxPlies> slots_;
};

/// The shared ordering intelligence one search (or one co-operating fleet
/// of workers) hangs off its searchers: history + killers, aged together.
/// Killers are cleared rather than aged — a new search's ply-k cutoffs have
/// nothing to do with the last one's.
struct OrderingTables {
  HistoryTable history;
  KillerTable killers;

  void new_search() noexcept {
    history.new_search();
    killers.clear();
  }
};

struct OrderingPolicy {
  bool sort_by_static_value = false;
  /// Sort the children of nodes at ply < max_sort_ply (root is ply 0).
  int max_sort_ply = 5;

  [[nodiscard]] bool should_sort(int ply) const noexcept {
    return sort_by_static_value && ply < max_sort_ply;
  }
};

/// Reusable buffers for the child sorts, so steady-state sorting performs
/// no heap allocations: both vectors keep their capacity across calls.
/// One instance per worker (or thread_local).  Keys are int64 so the
/// table-aware sort can compose (tier, static value, history) into one
/// comparison word; the pure static sort uses the same buffer with plain
/// Value keys.
template <Game G>
struct OrderingScratch {
  std::vector<std::pair<std::int64_t, std::size_t>> keyed;
  std::vector<typename G::Position> sorted;
};

/// Sort `children` ascending by static value; charges one sort and one
/// static evaluation per child to `stats`.  Allocation-free once the
/// scratch buffers have grown to the branching factor.
template <Game G>
void sort_children_by_static_value(const G& game,
                                   std::vector<typename G::Position>& children,
                                   SearchStats& stats,
                                   OrderingScratch<G>& scratch) {
  if (children.size() < 2) return;
  stats.child_sorts += 1;
  stats.sort_evals += children.size();
  auto& keyed = scratch.keyed;
  keyed.clear();
  keyed.reserve(children.size());
  for (std::size_t i = 0; i < children.size(); ++i)
    keyed.emplace_back(game.evaluate(children[i]), i);
  // The (key, index) pairs are distinct, so sorting them whole is a stable
  // sort by key, without the temporary buffer std::stable_sort allocates.
  std::sort(keyed.begin(), keyed.end());
  auto& sorted = scratch.sorted;
  sorted.clear();
  sorted.reserve(children.size());
  for (const auto& [v, i] : keyed) sorted.push_back(std::move(children[i]));
  // Swap (not move-assign) so children's old buffer becomes the next call's
  // sorted scratch — both capacities stay in rotation.
  std::swap(children, sorted);
}

/// Convenience overload with per-thread scratch, for call sites without a
/// worker-owned OrderingScratch.
template <Game G>
void sort_children_by_static_value(const G& game,
                                   std::vector<typename G::Position>& children,
                                   SearchStats& stats) {
  static thread_local OrderingScratch<G> scratch;
  sort_children_by_static_value(game, children, stats, scratch);
}

/// Table-aware child sort: the paper's ascending static-value order refined
/// by the shared tables — the TT move (fingerprint match against
/// `tt_hint`) sorts first, killers of this ply next, and within a tier
/// higher history credit breaks toward the front.  Composes the three
/// signals into one int64 key
///
///     tier * 2^53  +  static_value * 2^20  -  min(history, 2^20 - 1)
///
/// so one stable sort preserves the static order exactly where the tables
/// are silent: with empty tables and no hint every key is
/// `2*2^53 + value*2^20`, a strictly monotone transform of the static
/// key, and the sort (both stable) permutes identically.  Degrades to the
/// plain static sort for non-hashed games.
template <Game G>
void sort_children_ordered(const G& game,
                           std::vector<typename G::Position>& children,
                           SearchStats& stats, OrderingScratch<G>& scratch,
                           const OrderingTables& tables, int ply,
                           std::uint16_t tt_hint = 0) {
  if constexpr (!HashedGame<G>) {
    (void)tables; (void)ply; (void)tt_hint;
    sort_children_by_static_value(game, children, stats, scratch);
  } else {
    if (children.size() < 2) return;
    stats.child_sorts += 1;
    stats.sort_evals += children.size();
    auto& keyed = scratch.keyed;
    keyed.clear();
    keyed.reserve(children.size());
    bool fronted = false;
    for (std::size_t i = 0; i < children.size(); ++i) {
      const std::uint64_t key = children[i].tt_key();
      std::int64_t tier = 2;
      if (tt_hint != 0 && move_fingerprint(key) == tt_hint) {
        tier = 0;
        fronted = true;
      } else if (tables.killers.is_killer(ply, key)) {
        tier = 1;
        stats.order_killer_hits += 1;
      }
      const std::uint32_t hist = tables.history.probe(key);
      if (hist != 0) stats.order_history_hits += 1;
      const std::int64_t value = std::clamp<std::int64_t>(
          game.evaluate(children[i]), -(std::int64_t{1} << 30),
          std::int64_t{1} << 30);
      keyed.emplace_back(
          (tier << 53) + (value << 20) -
              std::min<std::int64_t>(hist, (std::int64_t{1} << 20) - 1),
          i);
    }
    if (fronted) stats.order_tt_first += 1;
    std::sort(keyed.begin(), keyed.end());  // stable by key, as above
    auto& sorted = scratch.sorted;
    sorted.clear();
    sorted.reserve(children.size());
    for (const auto& [v, i] : keyed) sorted.push_back(std::move(children[i]));
    std::swap(children, sorted);
  }
}

/// Convenience overload with per-thread scratch.
template <Game G>
void sort_children_ordered(const G& game,
                           std::vector<typename G::Position>& children,
                           SearchStats& stats, const OrderingTables& tables,
                           int ply, std::uint16_t tt_hint = 0) {
  static thread_local OrderingScratch<G> scratch;
  sort_children_ordered(game, children, stats, scratch, tables, ply, tt_hint);
}

}  // namespace ers
