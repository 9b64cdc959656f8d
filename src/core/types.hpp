#pragma once
// Shared types for the parallel ER problem-heap engine (paper §6).

#include <cstddef>
#include <cstdint>
#include <limits>

#include "search/ordering.hpp"
#include "util/value.hpp"

namespace ers {
class ConcurrentTranspositionTable;  // search/concurrent_ttable.hpp
}
namespace ers::obs {
class TraceSession;  // obs/trace.hpp
}

namespace ers::core {

/// Sentinel for "no node" in the engines' child/parent links.
inline constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

/// Node roles in the parallel tree (paper §6, Tables 1 and 2).
enum class NodeType : std::uint8_t {
  kENode,      ///< all children generated and examined (one becomes the value)
  kRNode,      ///< children examined sequentially until one refutes the node
  kUndecided,  ///< first child (elder grandchild) evaluated; role pending
};

/// The three speculation mechanisms of §5, individually toggleable for the
/// ablation benches.  The paper's implementation enables all three.
struct SpeculationConfig {
  /// After the e-child of E is evaluated, refute E's remaining children in
  /// parallel (all dispatched at once) rather than one at a time.
  bool parallel_refutation = true;
  /// Keep selecting additional e-children from the speculative queue while
  /// the first is still being evaluated.
  bool multiple_e_children = true;
  /// Allow e-child selection once all but one elder grandchild is evaluated
  /// (paper §6: "as soon as all but one ... have been evaluated").
  bool early_e_child_choice = true;
};

/// How potential speculative work (e-nodes on the speculative queue) is
/// ranked globally.  The paper uses kFewestEChildren and calls it "a rather
/// naive ordering"; finding a better global ranking is its §8 future work,
/// so two alternatives are first-class here and compared in
/// bench_spec_policy.
enum class SpecRankPolicy : std::uint8_t {
  /// Paper §6: fewest e-children first, ties in favor of shallower nodes.
  kFewestEChildren,
  /// Most promising first: rank by the best unpromoted candidate's
  /// tentative value (lower = closer to becoming the node's real e-child),
  /// ties in favor of shallower nodes.
  kBestBound,
  /// Arrival order (no ranking) — the control.
  kFifo,
};

/// The serial search below the root of every unit (DESIGN.md §18).  Above
/// the serial-depth cutover the engine runs ER either way, and each unit
/// keeps Figure 8's protocol at its root (WorkKind).
enum class UnitKernel : std::uint8_t {
  /// Allocation-free alpha-beta (search/alpha_beta.hpp), the default: as
  /// cheap per node as the best serial searcher.
  kAlphaBeta,
  /// The paper's serial ER (Figure 8).  The Table 3 trees pin it, so the
  /// simulated Figures 10–13 keep the paper's node counts.
  kSerialEr,
};

struct EngineConfig {
  int search_depth = 7;
  /// Ply at which the serial search takes over: nodes at this ply are
  /// resolved as a single (heavy) work unit, searched below its root by
  /// `unit_kernel`.  Clamped to [0, search_depth].
  ///
  /// The default, 2, sizes the unit for the alpha-beta kernel on real
  /// cores: at depth 7 a unit is a 5-ply alpha-beta search (median 34–70
  /// µs on random b = 8 trees, depending on host load) against ~1 µs of
  /// engine acquire + commit, and a b = 8 tree splits into 64 units.  In
  /// the 4-thread sweep on a 4-core host (bench_serial_depth's second
  /// table, EXPERIMENTS.md §7; every value checked against alpha-beta)
  /// ply 2 was the fastest ply on random trees with b = 4..32 and on
  /// Othello at depths 7 and 9; the old default, ply 3, took 1.9× its time
  /// at b = 8, 2.4× at b = 16 and 8× at b = 32.  Narrow deep trees want a
  /// deeper cutover: ply 2 took 1.07× the best ply's time at b = 3,
  /// depth 12, 1.24× at b = 3, depth 14 and 1.6× at b = 2, depth 22.  The
  /// simulator still peaks at the paper's choices at 16 processors, so the
  /// Table 3 trees (harness/tree_registry.cpp) pin theirs: 5 at depth 7
  /// (R3, O1–O3) and 7 at depths 10–11 (R1, R2).
  int serial_depth = 2;
  /// Move ordering applied to non-e-node children (paper §7).
  OrderingPolicy ordering;
  SpeculationConfig speculation;
  SpecRankPolicy spec_rank = SpecRankPolicy::kFewestEChildren;
  /// Shared move-ordering tables (search/ordering.hpp): history counters
  /// and killer slots consulted by expansion-time child sorts and the
  /// serial units.  Not owned; null keeps the paper's pure
  /// static-value sort.  Ignored unless the game is a HashedGame.
  OrderingTables* order_tables = nullptr;
  /// Lock-free transposition table shared by every worker's compute phase:
  /// kExpand units probe it for an exact full-depth entry (and the TT
  /// move), and serial units probe and store it at every node of their
  /// search, with either unit kernel.  Not owned; must outlive the engine.
  /// Ignored unless the game is a HashedGame.
  ConcurrentTranspositionTable* shared_table = nullptr;
  /// The search below the root of every serial unit.  Alpha-beta by
  /// default; harness/tree_registry.cpp pins kSerialEr for the Table 3
  /// trees, the only reason that kernel stays.
  UnitKernel unit_kernel = UnitKernel::kAlphaBeta;
  /// Tracing session for the scheduling events only the engine sees
  /// (speculative spawn/cancel, unit commits).  The engine writes the
  /// session's dedicated engine tracer under its lock, so from one thread
  /// at a time.  Not owned; null disables engine-side tracing (the
  /// executors trace their own events independently via the same session).
  obs::TraceSession* trace = nullptr;
};

/// Aggregate counters kept by the engine; nodes_generated feeds Figures
/// 12/13 and the simulator's cost model.
struct EngineStats {
  SearchStats search;               ///< nodes/evals, parallel region + serial units
  std::uint64_t units_processed = 0;        ///< work units completed
  std::uint64_t serial_units = 0;           ///< units resolved below the cutover
  std::uint64_t promotions_mandatory = 0;   ///< first e-child selections
  std::uint64_t promotions_speculative = 0; ///< extra e-children (spec queue)
  std::uint64_t refutations_dispatched = 0; ///< children re-typed r-node
  std::uint64_t cutoffs_at_pop = 0;         ///< units cancelled before compute
  std::uint64_t dead_items_dropped = 0;     ///< queue entries under finished ancestors
};

/// Snapshot of the engine's lock accounting: one section per acquire or
/// commit call on the engine's one mutex.  Counters accrue whether or not
/// a trace session is attached, from the same clock readings that feed the
/// traced wait/hold spans, so report totals and span totals agree exactly.
/// The thread runtime folds this into its SchedulerStats.
struct EngineLockStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t wait_ns = 0;  ///< blocked before entering a section
  std::uint64_t hold_ns = 0;  ///< inside sections
};

/// Memory-occupancy snapshot of the engine's two-tier node storage
/// (DESIGN.md §15): the id-stable hot arena, the id-parallel position
/// arena, and the cold-record slab.  Every byte total is
/// monotone — arena chunks and slab chunks are never returned before the
/// engine is destroyed, and freelists recycle *inside* chunks — so
/// peak_bytes is simply the current reserved total.  Exported through
/// obs::register_engine_mem_stats as the engine.mem.* gauges.
struct EngineMemStats {
  std::uint64_t live_nodes = 0;      ///< nodes in the hot arena (never freed)
  std::uint64_t hot_bytes = 0;       ///< hot-record arena chunk bytes
  std::uint64_t position_bytes = 0;  ///< position arena chunk bytes
  std::uint64_t cold_allocated = 0;  ///< cold records ever allocated
  std::uint64_t cold_live = 0;       ///< cold records currently attached
  std::uint64_t cold_reclaimed = 0;  ///< cold records returned (finish/dead)
  std::uint64_t slab_bytes = 0;      ///< cold-slab chunk bytes
  std::uint64_t peak_bytes = 0;      ///< hot + position + slab (monotone)
};

/// Why a subtree's queued/committed work was cancelled — the cause axis of
/// the wasted-work attribution ledger (DESIGN.md §16).  The ledger charges
/// at the engine's kill points, so the causes mirror them exactly:
///   * kBoundChange       — the parent finished through a pop-time cutoff
///                          (its value crossed its bound), killing its
///                          still-unfinished children;
///   * kSiblingResolution — the parent finished through a committed child's
///                          value (normal resolution), so the remaining
///                          speculative siblings were moot;
///   * kDeadDrop          — a queue entry discarded at acquire time because
///                          an ancestor had already finished.  Dead drops
///                          count entries only: the subtree's committed
///                          compute was charged when the subtree died.
enum class WasteCause : std::uint8_t {
  kBoundChange = 0,
  kSiblingResolution = 1,
  kDeadDrop = 2,
};
inline constexpr std::size_t kWasteCauseCount = 3;

/// The ledger's ply axis: engine nodes live at or above the serial cutover
/// (ply in [0, serial_depth]; nodes below it sit inside units), so bands
/// are single plies with one tail band.
inline constexpr std::size_t kWastePlyBands = 4;
[[nodiscard]] constexpr std::size_t waste_band_of(std::uint32_t ply) noexcept {
  return ply < kWastePlyBands - 1 ? ply : kWastePlyBands - 1;
}

/// Wasted-work attribution ledger (DESIGN.md §16): at every subtree kill
/// the engine charges the killed subtree's committed work — unit counts and
/// committed compute ns — to the (cause, ply band) cell of the kill, and
/// charges post-death commits (in-flight work that lands after its subtree
/// died) to the same cell as they arrive, so every committed unit is
/// attributed at most once.  `cancels` counts killed subtree roots for the
/// kill causes and discarded queue entries for kDeadDrop.  compute ns is
/// exact under the simulator's virtual clock and under tracing (it reuses
/// the per-unit span measurement); untraced thread runs report 0 ns and
/// exact unit counts.
struct EngineWasteStats {
  std::uint64_t cancels[kWasteCauseCount][kWastePlyBands] = {};
  std::uint64_t units[kWasteCauseCount][kWastePlyBands] = {};
  std::uint64_t compute_ns[kWasteCauseCount][kWastePlyBands] = {};

  [[nodiscard]] std::uint64_t cause_cancels(WasteCause c) const noexcept {
    return row_total(cancels[static_cast<std::size_t>(c)]);
  }
  [[nodiscard]] std::uint64_t cause_units(WasteCause c) const noexcept {
    return row_total(units[static_cast<std::size_t>(c)]);
  }
  [[nodiscard]] std::uint64_t cause_ns(WasteCause c) const noexcept {
    return row_total(compute_ns[static_cast<std::size_t>(c)]);
  }
  [[nodiscard]] std::uint64_t total_cancels() const noexcept {
    return grid_total(cancels);
  }
  [[nodiscard]] std::uint64_t total_units() const noexcept {
    return grid_total(units);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return grid_total(compute_ns);
  }

 private:
  [[nodiscard]] static std::uint64_t row_total(
      const std::uint64_t (&row)[kWastePlyBands]) noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t v : row) n += v;
    return n;
  }
  [[nodiscard]] static std::uint64_t grid_total(
      const std::uint64_t (&g)[kWasteCauseCount][kWastePlyBands]) noexcept {
    std::uint64_t n = 0;
    for (const auto& row : g) n += row_total(row);
    return n;
  }
};

/// Stable ledger name of a cause (metric keys and the trace report).
[[nodiscard]] constexpr const char* waste_cause_name(WasteCause c) noexcept {
  switch (c) {
    case WasteCause::kBoundChange: return "bound_change";
    case WasteCause::kSiblingResolution: return "sibling_resolution";
    case WasteCause::kDeadDrop: return "dead_drop";
  }
  return "unknown";
}

/// What a worker should do with an acquired node.  Nodes at or below the
/// serial-depth cutover become serial work units whose semantics depend on
/// the node's role, mirroring Figure 8 exactly: a full evaluation for
/// e-nodes, an Eval_first for undecided nodes (elder-grandchild evaluation),
/// and Refute_rest / Eval_first+Refute_rest for refutations.  Below the
/// unit's root, EngineConfig::unit_kernel searches.
enum class WorkKind : std::uint8_t {
  kExpand,           ///< apply Table 1 (cheap tree bookkeeping)
  kSerialFull,       ///< full evaluation (e-node or horizon leaf)
  kSerialEvalFirst,  ///< evaluate only the first child (undecided node)
  kSerialRefuteRest, ///< finish a partially evaluated node (has tentative)
  kSerialRefute,     ///< refute a fresh node (Eval_first + Refute_rest)
  kPromote,          ///< speculative-queue pop: select another e-child
};

struct WorkItem {
  std::uint32_t node = 0;
  WorkKind kind = WorkKind::kExpand;
  /// Search window captured at acquire time (serial units only).
  Window window;
  /// Tentative value from the node's earlier Eval_first unit
  /// (kSerialRefuteRest only).
  Value tentative = -kValueInf;
  /// Node role frozen at acquire time.  The live Node::type can be
  /// re-written by a concurrent commit while this item is in flight
  /// (dispatch_refutations re-types queued/running children), so compute()
  /// must consult this copy, never the node's field.
  NodeType ntype = NodeType::kUndecided;
  /// Stable pointer to the engine node, captured under the engine lock at
  /// acquire time.  compute() runs with no engine lock held, and
  /// indexing the node container there would race with concurrent commits
  /// growing it; arena slots never move, so the pointer is safe while the
  /// item is in flight.
  const void* node_ref = nullptr;
  /// Stable pointer to the node's game position in the engine's id-parallel
  /// position arena (never reclaimed), captured at acquire time for the
  /// same reason as node_ref: the hot node record does not carry the
  /// position, and compute() runs lockless.
  const void* pos_ref = nullptr;
};

}  // namespace ers::core
