#pragma once
// Parallel ABDADA runner: one or two root iterations, N identical workers
// per iteration, coordination purely through the shared tables (DESIGN.md
// §14).
//
// Unlike every other parallel driver in this repo, this one never touches
// the problem heap: there is no engine, no acquire/commit.  Each root
// iteration runs `threads` workers — the calling thread and its persistent
// helpers (runtime/worker_pool.hpp), the same ones parallel ER uses — that
// all run the same AbdadaSearcher from the same root with the same window;
// the shared ConcurrentTranspositionTable spreads finished subtrees between
// them and the NprocTable spreads the workers across siblings.  The first
// worker to resolve the window claims the iteration's result and raises a
// stop flag; the rest unwind and their partial work is discarded (their
// stores up to the flag remain in the table and are sound).
//
// The root follows parallel ER's aspiration policy (search/aspiration.hpp,
// DESIGN.md §20); abdada_parallel_search() gives the schedule.
//
// Thanks to the searcher's depth-exact TT gating, every claimed iteration
// value equals serial alpha-beta at that depth regardless of thread count
// or interleaving, so the estimate — and the final value — is
// deterministic.  Node counts are not: that is the quantity the benches
// compare against ER.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "gametree/game.hpp"
#include "obs/trace.hpp"
#include "runtime/worker_pool.hpp"
#include "search/abdada.hpp"
#include "search/aspiration.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/nproc_table.hpp"
#include "search/ordering.hpp"
#include "util/check.hpp"
#include "util/value.hpp"

namespace ers::baselines {

struct AbdadaOptions {
  int threads = 1;
  /// Shared TT size (2^n 16-byte slots).  Horizon leaves never reach the
  /// table, so 16 (1 MiB) holds a depth-7 solve's interior nodes.  In a
  /// 14/16/18 sweep at 4 threads on othello_d7- and random_wide_d7-shaped
  /// inputs, 16 ran 8–18% faster than 18.  14 ran a median 2–5% faster
  /// than 16 at depth 7, but at depth 9 no size separated from the noise
  /// and 14 searched up to 1.2% more nodes at one thread, so 16 leaves
  /// room for deeper searches (EXPERIMENTS.md, "ABDADA schedule and
  /// leaves (A/B)").
  int table_log2 = 16;
  int nproc_log2 = 16;          ///< nproc side table (2^n counters, 256 KiB)
  OrderingPolicy ordering;
  obs::TraceSession* trace = nullptr;
};

/// One root iteration's claimed outcome.
struct AbdadaDepthResult {
  int depth = 0;
  Value value = 0;
  int searches = 1;  ///< root searches by the claiming worker (2 = re-search)
  bool failed_low = false;
  bool failed_high = false;
};

struct AbdadaParallelResult {
  Value value = 0;                      ///< final-depth root value
  SearchStats stats;                    ///< summed over all workers/iterations
  std::vector<SearchStats> per_thread;  ///< per-worker totals (duplication!)
  /// Root iterations in order: {max_depth − kAspirationPlies, max_depth}
  /// when the root aspirates, else {max_depth}.
  std::vector<AbdadaDepthResult> per_depth;
  int researches = 0;  ///< aspiration re-searches (0 or 1)
  std::uint64_t elapsed_ns = 0;
};

/// Run parallel ABDADA on `game` to `max_depth`.  Owns a fresh shared TT
/// and nproc table for the whole call (TT generations age between root
/// iterations via new_search()).  When aspirates_root(opt.ordering,
/// max_depth), a full-window iteration kAspirationPlies shallower gives the
/// estimate and max_depth searches estimate ± kAspirationDelta, re-searching
/// once on a fail; otherwise one full-window iteration searches max_depth.
/// Works for any Game; without a HashedGame the tables are inert and the
/// workers redundantly alpha-beta (the degenerate case the 1-thread
/// identity tests use).
template <Game G>
[[nodiscard]] AbdadaParallelResult abdada_parallel_search(
    const G& game, int max_depth, const AbdadaOptions& opt = {}) {
  ERS_CHECK(opt.threads >= 1);
  ERS_CHECK(max_depth >= 0);
  AbdadaParallelResult out;
  out.per_thread.resize(static_cast<std::size_t>(opt.threads));

  ConcurrentTranspositionTable tt(opt.table_log2);
  NprocTable nproc(opt.nproc_log2);
  if (opt.trace != nullptr) opt.trace->ensure_workers(opt.threads);

  // One root iteration at `depth` on every worker: under the aspiration
  // protocol around `estimate` if given, else with the full window.
  auto iterate = [&](int depth, std::optional<Value> estimate) {
    if constexpr (HashedGame<G>) tt.new_search();
    std::atomic<bool> stop{false};
    std::atomic<bool> claimed{false};
    AbdadaDepthResult dr;
    dr.depth = depth;

    auto work = [&](int tid) {
      AbdadaSearcher<G> searcher(game, depth, opt.ordering);
      if constexpr (HashedGame<G>)
        searcher.with_shared_table(&tt).with_nproc_table(&nproc);
      searcher.with_stop(&stop);
      if (opt.trace != nullptr) searcher.with_trace(opt.trace, tid);

      SearchStats local;
      auto search = [&](Window w) {
        const SearchResult r = searcher.run_from(game.root(), 0, w);
        local += r.stats;
        return r.value;
      };
      AspirationOutcome o;
      if (estimate.has_value())
        o = aspiration_drive(search, *estimate, kAspirationDelta);
      else
        o.value = search(full_window());
      out.per_thread[static_cast<std::size_t>(tid)] += local;
      if (!searcher.aborted() && !claimed.exchange(true)) {
        dr.value = o.value;
        dr.searches = o.searches;
        dr.failed_low = o.failed_low;
        dr.failed_high = o.failed_high;
        stop.store(true, std::memory_order_relaxed);
      }
    };

    runtime::run_on_workers(opt.threads, work);
    // Aborts happen only after a claim raised the stop flag, so some worker
    // always claims.
    ERS_CHECK(claimed.load());
    ERS_DCHECK(nproc.all_idle());
    out.researches += dr.searches - 1;
    out.per_depth.push_back(dr);
    return dr.value;
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::optional<Value> estimate;
  if (aspirates_root(opt.ordering, max_depth))
    estimate = iterate(max_depth - kAspirationPlies, std::nullopt);
  out.value = iterate(max_depth, estimate);
  out.elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  for (const auto& s : out.per_thread) out.stats += s;
  return out;
}

}  // namespace ers::baselines
