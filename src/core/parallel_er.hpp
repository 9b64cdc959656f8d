#pragma once
// Public entry points for parallel ER search — the library's headline API.
//
//   * parallel_er_threads: run on OS threads — the calling thread and its
//     persistent helpers, so no thread is started per call (shared-memory
//     runtime, the production path).
//   * parallel_er_sim: run on the deterministic P-processor simulator and
//     report timing metrics (the experiment path; see DESIGN.md §1).

#include <optional>
#include <utility>

#include "core/engine.hpp"
#include "core/types.hpp"
#include "gametree/game.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_executor.hpp"
#include "search/concurrent_ttable.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"

namespace ers {

template <typename Position>
struct ParallelSearchResult {
  Value value = 0;
  core::EngineStats engine;
  /// The executor's own run report (wall time, scheduler counters, TT
  /// traffic) — what obs::register_thread_report flattens into a metrics
  /// snapshot, and what a traced run's per-worker spans must sum to.
  runtime::ThreadRunReport report;
  /// The root child achieving the value (the move to play); empty when the
  /// whole search ran as one serial unit or the root is a leaf.
  std::optional<Position> best_move;
  /// Wasted-work attribution: committed units/ns later cancelled, by cause
  /// and ply band (DESIGN.md §16; duplicate of report.waste for symmetry
  /// with the sim result).
  core::EngineWasteStats waste;
};

template <typename Position>
struct SimulatedSearchResult {
  Value value = 0;
  core::EngineStats engine;
  sim::SimMetrics metrics;
  /// Node-storage occupancy at completion (DESIGN.md §15) — the
  /// bytes-per-node figures read peak_bytes from here.  (The thread path
  /// carries the same snapshot inside report.mem.)
  core::EngineMemStats mem;
  std::optional<Position> best_move;
  /// Wasted-work attribution ledger (DESIGN.md §16).  Under the simulator
  /// compute_ns is exact — every unit carries its cost-model duration.
  core::EngineWasteStats waste;
};

/// Search `game` to cfg.search_depth with parallel ER on `threads` OS
/// threads: the calling thread runs worker 0 and its persistent helpers
/// run the rest (runtime/worker_pool.hpp, DESIGN.md §19).  The engine
/// synchronizes itself with one mutex (DESIGN.md §10); compute phases run
/// outside it, and each worker takes one unit per acquire.  The returned
/// value equals serial negmax.
/// `batch` and `shards` must both be 1.  They are left over from the
/// batched scheduler and the sharded problem heap, both removed, and stay
/// only because perfbench/worker.cpp passes them positionally before
/// `trace`; drop both together with the next change to perfbench.
/// `trace` (optional) records the run into per-worker ring buffers for
/// Perfetto export / trace_report (obs/trace_writer.hpp); it covers both
/// the executor's scheduling events and the engine's own hooks.
template <Game G>
[[nodiscard]] ParallelSearchResult<typename G::Position> parallel_er_threads(
    const G& game, const core::EngineConfig& cfg, int threads, int batch = 1,
    int shards = 1, obs::TraceSession* trace = nullptr) {
  ERS_CHECK(batch == 1 && shards == 1);
  core::EngineConfig c = cfg;
  c.trace = trace;
  if (c.shared_table != nullptr) c.shared_table->new_search();
  core::Engine<G> engine(game, c);
  runtime::ThreadExecutor<core::Engine<G>> exec(threads);
  exec.with_trace(trace);
  runtime::ThreadRunReport report = exec.run(engine);
  return ParallelSearchResult<typename G::Position>{
      engine.root_value(), engine.stats(), std::move(report),
      engine.best_root_position(), engine.waste_stats()};
}

/// Search `game` with parallel ER on `processors` simulated processors;
/// deterministic for fixed inputs.  metrics.makespan is the simulated
/// parallel time used by the efficiency figures.
/// `trace` (optional) records the simulated schedule on the virtual clock
/// in the same event schema as the thread runtime — same seed + config
/// produce an identical event stream (tested).
/// `sampler` (optional) is polled on the virtual clock at each retired
/// event, yielding a deterministic health time series (DESIGN.md §16);
/// the caller installs the probe and reads the ring afterwards.
template <Game G>
[[nodiscard]] SimulatedSearchResult<typename G::Position> parallel_er_sim(
    const G& game, const core::EngineConfig& cfg, int processors,
    sim::CostModel cost = {}, obs::TraceSession* trace = nullptr,
    obs::Sampler* sampler = nullptr) {
  core::EngineConfig c = cfg;
  c.trace = trace;
  if (c.shared_table != nullptr) c.shared_table->new_search();
  core::Engine<G> engine(game, c);
  sim::SimExecutor<core::Engine<G>> exec(processors, cost);
  exec.with_trace(trace).with_sampler(sampler);
  const sim::SimMetrics m = exec.run(engine);
  return SimulatedSearchResult<typename G::Position>{
      engine.root_value(), engine.stats(), m, engine.mem_stats(),
      engine.best_root_position(), engine.waste_stats()};
}

}  // namespace ers
