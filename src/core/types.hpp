#pragma once
// Shared types for the parallel ER problem-heap engine (paper §6).

#include <cstdint>
#include <limits>

#include "search/ordering.hpp"
#include "util/value.hpp"

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
  std::uint64_t cutoffs_at_pop = 0;         ///< units cancelled before compute
  std::uint64_t dead_items_dropped = 0;     ///< queue entries under finished ancestors

  EngineStats& operator+=(const EngineStats& o) noexcept {
    search += o.search;
    units_processed += o.units_processed;
    serial_units += o.serial_units;
    promotions_mandatory += o.promotions_mandatory;
    promotions_speculative += o.promotions_speculative;
    cutoffs_at_pop += o.cutoffs_at_pop;
    dead_items_dropped += o.dead_items_dropped;
    return *this;
  }
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
/// arena, and the cold records.  Nothing is freed before the engine is
/// destroyed, so every total is monotone and peak_bytes is simply the
/// current sum.
struct EngineMemStats {
  std::uint64_t live_nodes = 0;      ///< nodes in the hot arena
  std::uint64_t hot_bytes = 0;       ///< hot-record arena chunk bytes
  std::uint64_t position_bytes = 0;  ///< position arena chunk bytes
  std::uint64_t cold_allocated = 0;  ///< cold records attached
  /// Cold records plus their two child arrays (allocator overhead and the
  /// record deque's block rounding not counted).
  std::uint64_t cold_bytes = 0;
  std::uint64_t peak_bytes = 0;      ///< hot + position + cold (monotone)
};

/// Why a subtree's committed work was cancelled (DESIGN.md §16): the
/// parent finished through a pop-time cutoff (kBoundChange: its value
/// crossed its bound) or through a committed child's value
/// (kSiblingResolution: the remaining speculative siblings were moot).
/// The ledger keeps totals only; the cause survives as the kill's
/// kSpecCancel trace arg (cause + 2), which trace_report's
/// speculation-waste table splits by.
enum class WasteCause : std::uint8_t {
  kBoundChange = 0,
  kSiblingResolution = 1,
};

/// Wasted-work attribution ledger (DESIGN.md §16): at every subtree kill
/// the engine charges the killed subtree's committed work — unit count and
/// committed compute ns — and charges post-death commits (in-flight work
/// that lands after its subtree died) as they arrive, so every committed
/// unit is attributed at most once, to its nearest cancelled ancestor.
/// `cancels` counts killed subtree roots plus the queue entries dropped at
/// acquire time because an ancestor had already finished (those never ran,
/// so they add no units or ns).  compute ns is exact under the simulator's
/// virtual clock and under tracing (it reuses the per-unit span
/// measurement); untraced thread runs report 0 ns and exact unit counts.
struct EngineWasteStats {
  std::uint64_t cancels = 0;
  std::uint64_t units = 0;
  std::uint64_t compute_ns = 0;

  [[nodiscard]] std::uint64_t total_cancels() const noexcept { return cancels; }
  [[nodiscard]] std::uint64_t total_units() const noexcept { return units; }
  [[nodiscard]] std::uint64_t total_ns() const noexcept { return compute_ns; }

  EngineWasteStats& operator+=(const EngineWasteStats& o) noexcept {
    cancels += o.cancels;
    units += o.units;
    compute_ns += o.compute_ns;
    return *this;
  }
};

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
