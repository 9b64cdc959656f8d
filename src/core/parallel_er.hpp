#pragma once
// Public entry points for parallel ER search — the library's headline API.
//
//   * parallel_er_threads: run on OS threads — the calling thread and its
//     persistent helpers, so no thread is started per call (shared-memory
//     runtime, the production path).  Sorted searches run the root under
//     an aspiration window (DESIGN.md §20).
//   * parallel_er_sim: run on the deterministic P-processor simulator and
//     report timing metrics (the experiment path; see DESIGN.md §1).

#include <chrono>
#include <cstdint>
#include <optional>

#include "core/engine.hpp"
#include "core/types.hpp"
#include "gametree/game.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_executor.hpp"
#include "search/alpha_beta.hpp"
#include "search/aspiration.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers {

/// What parallel_er_threads returns.  A sorted search runs the engine once
/// or twice (an aspiration guess, then at most one re-search); every field
/// below covers the whole call unless it says otherwise.
template <typename Position>
struct ParallelSearchResult {
  Value value = 0;
  /// Engine counters summed over the runs, plus the aspiration estimate's
  /// serial search in engine.search, so node counts are the call's total.
  core::EngineStats engine;
  /// The executor's run reports folded into one (scheduler counters and
  /// units summed; mem the larger run's snapshot) — what a traced run's
  /// per-worker spans must sum to.  elapsed_ns is the wall time of the
  /// whole call, estimate included.
  runtime::ThreadRunReport report;
  /// The root child achieving the value (the move to play), from the last
  /// run; empty when the whole search ran as one serial unit or the root
  /// is a leaf.
  std::optional<Position> best_move;
  /// Wasted-work attribution: committed units/ns later cancelled, summed
  /// over the runs (DESIGN.md §16).  Unit counts are always exact;
  /// compute_ns only on traced runs — untraced thread workers never read
  /// the clock, so they stamp 0 ns per unit.
  core::EngineWasteStats waste;
  /// Aspiration re-searches: 1 when the guess window failed, else 0
  /// (always 0 for an unsorted search, which runs once with the full
  /// window).
  int researches = 0;
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
/// When aspirates_root(cfg.ordering, cfg.search_depth) holds (a sorted
/// search deeper than kAspirationPlies), the root runs under an aspiration
/// window (search/aspiration.hpp): serial alpha-beta kAspirationPlies
/// shallower, on the calling thread, gives the estimate, the engine
/// searches the window estimate ± kAspirationDelta, and a result outside
/// it gets one half-open re-search.  Every other search runs the engine
/// once with the full window.  The returned statistics cover the whole
/// call (see ParallelSearchResult).
/// `batch` and `shards` must both be 1.  They are left over from the
/// batched scheduler and the sharded problem heap, both removed, and stay
/// only because perfbench/worker.cpp passes them positionally before
/// `trace`; drop both together with the next change to perfbench.
/// `trace` (optional) records the run into per-worker ring buffers for
/// Perfetto export / trace_report (obs/trace_writer.hpp); it covers both
/// the executor's scheduling events and the engine's own hooks, for every
/// engine run of the call.
template <Game G>
[[nodiscard]] ParallelSearchResult<typename G::Position> parallel_er_threads(
    const G& game, const core::EngineConfig& cfg, int threads, int batch = 1,
    int shards = 1, obs::TraceSession* trace = nullptr) {
  ERS_CHECK(batch == 1 && shards == 1);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  core::EngineConfig c = cfg;
  c.trace = trace;
  ParallelSearchResult<typename G::Position> out;
  auto search = [&](Window root) {
    core::Engine<G> engine(game, c, root);
    runtime::ThreadExecutor<core::Engine<G>> exec(threads);
    exec.with_trace(trace);
    out.report.merge(exec.run(engine));
    out.engine += engine.stats();
    out.waste += engine.waste_stats();
    out.value = engine.root_value();
    out.best_move = engine.best_root_position();
    return out.value;
  };
  if (aspirates_root(c.ordering, c.search_depth)) {
    const SearchResult estimate = alpha_beta_search(
        game, c.search_depth - kAspirationPlies, c.ordering);
    out.engine.search += estimate.stats;
    out.researches =
        aspiration_drive(search, estimate.value, kAspirationDelta).searches - 1;
  } else {
    (void)search(full_window());
  }
  out.report.elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
  return out;
}

/// Search `game` with parallel ER on `processors` simulated processors;
/// deterministic for fixed inputs.  metrics.makespan is the simulated
/// parallel time used by the efficiency figures.
/// `trace` (optional) records the simulated schedule on the virtual clock
/// in the same event schema as the thread runtime — same seed + config
/// produce an identical event stream (tested).
template <Game G>
[[nodiscard]] SimulatedSearchResult<typename G::Position> parallel_er_sim(
    const G& game, const core::EngineConfig& cfg, int processors,
    sim::CostModel cost = {}, obs::TraceSession* trace = nullptr) {
  core::EngineConfig c = cfg;
  c.trace = trace;
  core::Engine<G> engine(game, c);
  sim::SimExecutor<core::Engine<G>> exec(processors, cost);
  exec.with_trace(trace);
  const sim::SimMetrics m = exec.run(engine);
  return SimulatedSearchResult<typename G::Position>{
      engine.root_value(), engine.stats(), m, engine.mem_stats(),
      engine.best_root_position(), engine.waste_stats()};
}

}  // namespace ers
