#pragma once
// Parallel ABDADA runner: iterative deepening at the root, N identical
// workers per depth, coordination purely through the shared tables
// (DESIGN.md §14).
//
// Unlike every other parallel driver in this repo, this one never touches
// the problem heap: there is no engine, no acquire/commit.  Each depth
// iteration runs `threads` workers — the calling thread and its persistent
// helpers (runtime/worker_pool.hpp), the same ones parallel ER uses — that
// all run the same AbdadaSearcher from the same root with the same
// aspiration window (seeded by the previous depth's value,
// search/aspiration.hpp); the shared ConcurrentTranspositionTable spreads
// finished subtrees between them and the NprocTable spreads the workers
// across siblings.  The first worker to resolve the window claims the depth
// result and raises a stop flag; the rest unwind and their partial work is
// discarded (their stores up to the flag remain in the table and are
// sound).
//
// Thanks to the searcher's depth-exact TT gating, every claimed depth value
// equals serial alpha-beta at that depth regardless of thread count or
// interleaving, so the estimate chain — and the final value — is
// deterministic.  Node counts are not: that is the quantity the benches
// compare against ER.

#include <atomic>
#include <chrono>
#include <cstdint>
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
  Value aspiration_delta = 25;  ///< half-width of the root guess window
  /// Shared TT size (2^n 16-byte slots).  18 (4 MiB) fits the depth-7
  /// solves timed against ER: at 20 (16 MiB), building and freeing the
  /// table took 1.9–2.9 ms of every solve, and R1/R2 at depth 10–11
  /// searched within 3% of 20's nodes (EXPERIMENTS.md, "Unit kernel").
  int table_log2 = 18;
  int nproc_log2 = 16;          ///< nproc side table (2^n counters, 256 KiB)
  OrderingPolicy ordering;
  obs::TraceSession* trace = nullptr;
};

/// One iterative-deepening step's claimed outcome.
struct AbdadaDepthResult {
  int depth = 0;
  Value value = 0;
  int searches = 1;  ///< aspiration searches by the claiming worker
  bool failed_low = false;
  bool failed_high = false;
};

struct AbdadaParallelResult {
  Value value = 0;                      ///< final-depth root value
  SearchStats stats;                    ///< summed over all workers/depths
  std::vector<SearchStats> per_thread;  ///< per-worker totals (duplication!)
  std::vector<AbdadaDepthResult> per_depth;
  int researches = 0;  ///< aspiration re-searches over all depths
  std::uint64_t elapsed_ns = 0;
};

/// Run parallel ABDADA on `game` to `max_depth`.  Owns a fresh shared TT
/// and nproc table for the whole deepening run (TT generations age between
/// depths via new_search()).  Works for any Game; without a HashedGame the
/// tables are inert and the workers redundantly alpha-beta (the degenerate
/// case the 1-thread identity tests use).
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

  const auto t0 = std::chrono::steady_clock::now();
  Value estimate = 0;
  for (int depth = max_depth == 0 ? 0 : 1; depth <= max_depth; ++depth) {
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
      AspirationOutcome o;
      if (depth <= 1) {
        // Nothing to aspire around yet: full window.
        const SearchResult r = searcher.run_from(game.root(), 0);
        local += r.stats;
        o.value = r.value;
      } else {
        o = aspiration_drive(
            [&](Window w) {
              const SearchResult r = searcher.run_from(game.root(), 0, w);
              local += r.stats;
              return r.value;
            },
            estimate, opt.aspiration_delta);
      }
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
    estimate = dr.value;
    out.researches += dr.searches - 1;
    out.per_depth.push_back(dr);
  }
  out.elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  out.value = estimate;
  for (const auto& s : out.per_thread) out.stats += s;
  return out;
}

}  // namespace ers::baselines
