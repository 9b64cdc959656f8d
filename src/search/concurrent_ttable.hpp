#pragma once
// Lock-free shared transposition table: the medium ABDADA's workers
// coordinate through (search/abdada.hpp), and alpha-beta's optional table
// (search/table_hooks.hpp).  It is designed so the hot path (probe/store
// from every worker on every node) takes no lock and touches exactly one
// cache line per operation.
//
// Design (documented in DESIGN.md, "Shared transposition table"):
//
//   * Fixed-size, power-of-two, direct-mapped array of 16-byte slots.  Each
//     slot is two relaxed 64-bit atomics: `xkey = key ^ data` and `data`
//     (Hyatt's lockless-hashing trick).  A reader validates an entry by
//     checking `xkey ^ data == key`: a torn read that mixes words from two
//     different writes of the *same* key validates only if the data words
//     are identical (harmless), and a mix across *different* keys validates
//     with probability ~2^-64 — the same false-match risk any 64-bit-keyed
//     table accepts.
//
//   * `data` packs (value, depth, generation, bound) into one word; bound 0
//     is reserved so an all-zero slot can never validate.
//
//   * All accesses use relaxed memory ordering.  This is sound because an
//     entry is pure data validated by the XOR check — no reader dereferences
//     anything through it or relies on happens-before with other memory; a
//     stale or lost entry only costs a re-search, never correctness.
//
//   * Replacement is depth-preferred within the current generation and
//     generation-aged across searches: a fresh store never loses to a stale
//     (older-generation) entry, and within a generation deeper entries win.
//     Races make the policy advisory (two writers may interleave decisions);
//     the XOR validation keeps every outcome safe.
//
//   * The table keeps NO shared counters: probe/hit/store statistics are
//     accumulated in each searcher's thread-local SearchStats (tt_probes /
//     tt_hits / tt_stores) and summed by the searcher's caller.

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/value.hpp"

namespace ers {

enum class BoundKind : std::uint8_t { kExact, kLower, kUpper };

/// A validated probe result.
struct TtHit {
  Value value = 0;
  int depth = -1;  ///< remaining depth the value is valid for
  BoundKind bound = BoundKind::kExact;
  /// Best-move fingerprint: the low 14 bits of the best child's hash key,
  /// or 0 when the store recorded none (fail-low results).  Ordering
  /// matches it against each child's own key fingerprint to front the TT
  /// move — a fingerprint, not an index, so a hint is never misapplied
  /// across move-generation orders.
  std::uint16_t move_hint = 0;
};

/// Fail-hard bound classification of a search result `v` obtained within
/// the window (alpha, beta) — what a table entry for it should claim.
[[nodiscard]] constexpr BoundKind classify_bound(Value v, Value alpha,
                                                 Value beta) noexcept {
  return v >= beta    ? BoundKind::kLower
         : v <= alpha ? BoundKind::kUpper
                      : BoundKind::kExact;
}

class ConcurrentTranspositionTable {
 public:
  /// 2^size_log2 slots of 16 bytes (default 2^20 = 16 MiB).
  explicit ConcurrentTranspositionTable(int size_log2 = 20)
      : mask_((std::uint64_t{1} << size_log2) - 1),
        slots_(std::size_t{1} << size_log2) {
    ERS_CHECK(size_log2 >= 4 && size_log2 <= 30);
  }

  /// Validated lookup; fills `out` and returns true on a hit.  Lock-free,
  /// wait-free, never blocks a writer.
  [[nodiscard]] bool probe(std::uint64_t key, TtHit& out) const noexcept {
    const Slot& s = slots_[key & mask_];
    const std::uint64_t data = s.data.load(std::memory_order_relaxed);
    const std::uint64_t xkey = s.xkey.load(std::memory_order_relaxed);
    if ((data & kBoundMask) == 0 || (xkey ^ data) != key) return false;
    out.value = unpack_value(data);
    out.depth = unpack_depth(data);
    out.bound = unpack_bound(data);
    out.move_hint = unpack_hint(data);
    return true;
  }

  /// Store with depth-preferred + generation-aged replacement.  Same-key
  /// stores always refresh; a different key evicts unless the incumbent is
  /// deeper AND from the current generation.  `move_hint` is the best
  /// child's 14-bit key fingerprint (TtHit::move_hint; 0 = none).
  void store(std::uint64_t key, Value value, int depth, BoundKind bound,
             std::uint16_t move_hint = 0) noexcept {
    ERS_DCHECK(depth >= 0);
    Slot& s = slots_[key & mask_];
    const std::uint8_t gen = generation_.load(std::memory_order_relaxed);
    const std::uint64_t cur = s.data.load(std::memory_order_relaxed);
    if ((cur & kBoundMask) != 0) {
      const std::uint64_t cur_key = s.xkey.load(std::memory_order_relaxed) ^ cur;
      if (cur_key != key && unpack_gen(cur) == gen &&
          unpack_depth(cur) > clamp_depth(depth))
        return;  // keep the deeper same-generation entry
    }
    const std::uint64_t data = pack(value, depth, bound, gen, move_hint);
    s.data.store(data, std::memory_order_relaxed);
    s.xkey.store(key ^ data, std::memory_order_relaxed);
  }

  /// Hint the slot for `key` into cache ahead of a probe/store pair.
  void prefetch(std::uint64_t key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[key & mask_]);
#else
    (void)key;
#endif
  }

  /// Start a new search epoch: entries from earlier generations become
  /// second-class citizens for replacement (their *values* stay probeable —
  /// a position's value at a given remaining depth does not depend on which
  /// root reached it).  O(1); safe to call concurrently with searches.
  void new_search() noexcept {
    generation_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Wipe every entry.  NOT safe concurrently with probe/store — call only
  /// while no search is running.
  void clear() noexcept {
    for (Slot& s : slots_) {
      s.data.store(0, std::memory_order_relaxed);
      s.xkey.store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Occupied-slot count — O(capacity), diagnostics only.
  [[nodiscard]] std::size_t occupancy() const noexcept {
    std::size_t n = 0;
    for (const Slot& s : slots_)
      if ((s.data.load(std::memory_order_relaxed) & kBoundMask) != 0) ++n;
    return n;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> xkey{0};  ///< key ^ data
    std::atomic<std::uint64_t> data{0};
  };
  static_assert(sizeof(Slot) == 16);

  // data word layout:
  //   bits  0-1   bound + 1        (0 = empty slot; never produced by pack)
  //   bits  2-9   remaining depth  (clamped to 255)
  //   bits 10-17  generation       (wraps mod 256; aging heuristic only)
  //   bits 18-31  best-move fingerprint (TtHit::move_hint; 0 = none)
  //   bits 32-63  value            (int32 bit pattern)
  static constexpr std::uint64_t kBoundMask = 0x3;
  static constexpr int kHintShift = 18;
  static constexpr std::uint64_t kHintMask = 0x3fff;

  static constexpr int clamp_depth(int depth) noexcept {
    return depth > 255 ? 255 : depth;
  }
  static constexpr std::uint64_t pack(Value v, int depth, BoundKind b,
                                      std::uint8_t gen,
                                      std::uint16_t hint) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) << 32) |
           ((static_cast<std::uint64_t>(hint) & kHintMask) << kHintShift) |
           (static_cast<std::uint64_t>(gen) << 10) |
           (static_cast<std::uint64_t>(clamp_depth(depth)) << 2) |
           (static_cast<std::uint64_t>(b) + 1);
  }
  static constexpr Value unpack_value(std::uint64_t data) noexcept {
    return static_cast<Value>(static_cast<std::uint32_t>(data >> 32));
  }
  static constexpr int unpack_depth(std::uint64_t data) noexcept {
    return static_cast<int>((data >> 2) & 0xff);
  }
  static constexpr std::uint8_t unpack_gen(std::uint64_t data) noexcept {
    return static_cast<std::uint8_t>((data >> 10) & 0xff);
  }
  static constexpr BoundKind unpack_bound(std::uint64_t data) noexcept {
    return static_cast<BoundKind>((data & kBoundMask) - 1);
  }
  static constexpr std::uint16_t unpack_hint(std::uint64_t data) noexcept {
    return static_cast<std::uint16_t>((data >> kHintShift) & kHintMask);
  }

  std::uint64_t mask_;
  std::vector<Slot> slots_;
  std::atomic<std::uint8_t> generation_{0};
};

}  // namespace ers
