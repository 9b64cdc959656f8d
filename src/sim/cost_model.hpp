#pragma once
// Deterministic cost model for the simulated executor.
//
// The Sequent's wall clock is replaced by abstract time units charged per
// primitive operation.  Absolute numbers are meaningless (as the paper
// itself notes about cross-machine comparisons); what the model preserves is
// the *relative* weight of tree operations, static evaluations, and shared
// problem-heap accesses — the three quantities whose balance produces the
// paper's efficiency/starvation/contention behavior.

#include <cstdint>

#include "core/types.hpp"
#include "gametree/game.hpp"

namespace ers::sim {

struct CostModel {
  std::uint64_t per_interior = 2;   ///< expanding one interior node (move gen)
  std::uint64_t per_leaf = 8;       ///< one static evaluation at the horizon
  std::uint64_t per_sort_eval = 8;  ///< one static evaluation done for ordering
  std::uint64_t per_unit_base = 1;  ///< fixed bookkeeping per work unit
  /// Cost of one serialized access to the shared problem heap — the
  /// interference knob: raising these reproduces the paper's growing
  /// contention loss at higher processor counts.  Each unit pays one
  /// acquire and one commit, the paper's setup.
  std::uint64_t per_heap_acquire = 1;
  std::uint64_t per_heap_commit = 1;
  /// Transposition-table traffic.  Probes and stores are lock-free (one
  /// cache line each), so unlike queue ops they are charged to the issuing
  /// processor only — cheap, but not free, which keeps a table-heavy search
  /// from simulating faster than the work it actually did.
  std::uint64_t per_tt_probe = 1;
  std::uint64_t per_tt_store = 1;
  /// Allocator cost of materializing one interior node's child storage
  /// (DESIGN.md §15).  The two-tier engine allocates one slab block per
  /// expansion (freelist-recycled); the old layout paid two mallocs.  0
  /// (the default) keeps every existing simulated figure bit-identical;
  /// raise it to study allocator pressure on the expansion path.
  std::uint64_t per_node_alloc = 0;

  /// Cost of the computation a unit performed, from its work counters.
  [[nodiscard]] std::uint64_t of(const SearchStats& s) const noexcept {
    return per_unit_base + per_interior * s.interior_expanded +
           per_leaf * s.leaves_evaluated + per_sort_eval * s.sort_evals +
           per_tt_probe * s.tt_probes + per_tt_store * s.tt_stores +
           per_node_alloc * s.interior_expanded;
  }

  /// Cost of an entire serial search with the same accounting — the
  /// numerator of the efficiency/speedup computations.
  [[nodiscard]] std::uint64_t serial_cost(const SearchStats& s) const noexcept {
    return of(s);
  }
};

}  // namespace ers::sim
