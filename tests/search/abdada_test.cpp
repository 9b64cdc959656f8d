// ABDADA (search/abdada.hpp + baselines/abdada_par.hpp): serial identity
// with alpha-beta, value determinism across thread counts, deferral
// accounting, abort semantics, trace wiring, and a tsan hammer over the
// nproc side table.

#include "search/abdada.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "baselines/abdada_par.hpp"
#include "connect4/connect4.hpp"
#include "obs/trace.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/aspiration.hpp"
#include "search/nproc_table.hpp"
#include "tictactoe/tictactoe.hpp"

namespace ers {
namespace {

// --- nproc side table ------------------------------------------------------

TEST(NprocTable, EnterLeaveBusy) {
  NprocTable t(8);
  EXPECT_EQ(t.capacity(), 256u);
  EXPECT_TRUE(t.all_idle());
  const std::uint64_t k = 0x9e3779b97f4a7c15ull;
  EXPECT_FALSE(t.busy(k));
  t.enter(k);
  EXPECT_TRUE(t.busy(k));
  EXPECT_FALSE(t.all_idle());
  t.enter(k);
  t.leave(k);
  EXPECT_TRUE(t.busy(k)) << "nested visitors keep the slot busy";
  t.leave(k);
  EXPECT_FALSE(t.busy(k));
  EXPECT_TRUE(t.all_idle());
}

TEST(NprocTable, AliasingIsPerSlot) {
  NprocTable t(4);  // 16 slots: aliasing certain across 32 keys
  for (std::uint64_t k = 0; k < 32; ++k) t.enter(k);
  EXPECT_FALSE(t.all_idle());
  for (std::uint64_t k = 0; k < 32; ++k) t.leave(k);
  EXPECT_TRUE(t.all_idle()) << "enter/leave must pair through aliasing";
}

TEST(NprocTable, ClearResets) {
  NprocTable t(6);
  t.enter(1);
  t.enter(2);
  t.clear();
  EXPECT_TRUE(t.all_idle());
}

// The tsan lane's target: raw enter/busy/leave contention over a deliberately
// tiny table so every thread hammers every slot.
TEST(NprocTable, ConcurrentHammerQuiescesIdle) {
  NprocTable t(6);  // 64 slots
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50'000;
  std::atomic<int> busy_observed{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&t, &busy_observed, w] {
      std::uint64_t key = 0x243f6a8885a308d3ull + static_cast<std::uint64_t>(w);
      int seen = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        key = key * 6364136223846793005ull + 1442695040888963407ull;
        t.enter(key);
        // The exclusivity read ABDADA performs between other workers'
        // enter/leave pairs.
        if (t.busy(key ^ 0x5555)) ++seen;
        t.leave(key);
      }
      busy_observed.fetch_add(seen, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_TRUE(t.all_idle())
      << "every enter paired with a leave must quiesce to all-zero";
}

// --- 1-thread identity with serial alpha-beta ------------------------------

TEST(Abdada, OneThreadMatchesAlphaBetaTicTacToe) {
  const TicTacToe g;
  for (const int depth : {0, 3, 5, 9}) {
    const Value oracle = alpha_beta_search(g, depth).value;
    baselines::AbdadaOptions opt;
    opt.threads = 1;
    const auto r = baselines::abdada_parallel_search(g, depth, opt);
    EXPECT_EQ(r.value, oracle) << "depth=" << depth;
  }
}

TEST(Abdada, OneThreadMatchesAlphaBetaConnect4) {
  const connect4::Connect4 g;
  for (const int depth : {4, 6}) {
    const Value oracle = alpha_beta_search(g, depth).value;
    baselines::AbdadaOptions opt;
    opt.threads = 1;
    const auto r = baselines::abdada_parallel_search(g, depth, opt);
    EXPECT_EQ(r.value, oracle) << "depth=" << depth;
  }
}

TEST(Abdada, OneThreadMatchesAlphaBetaOthelloDepth5) {
  // The HashedGame case: the shared TT is live (probes, stores, depth-exact
  // hits) and the value must still be exactly serial alpha-beta's.
  for (const int idx : {1, 2, 3}) {
    const othello::OthelloGame g(othello::paper_position(idx));
    const Value oracle = alpha_beta_search(g, 5).value;
    baselines::AbdadaOptions opt;
    opt.threads = 1;
    opt.ordering.sort_by_static_value = true;
    const auto r = baselines::abdada_parallel_search(g, 5, opt);
    EXPECT_EQ(r.value, oracle) << "position O" << idx;
    EXPECT_GT(r.stats.tt_stores, 0u) << "the shared table must be in use";
  }
}

TEST(Abdada, SearcherAloneMatchesAlphaBetaOnRandomTrees) {
  // One-shot (no iterative deepening, no tables) searcher equivalence over
  // assorted tree shapes, full and offset windows.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const UniformRandomTree g(4, 6, seed + 300, -95, 95);
    const Value oracle = alpha_beta_search(g, 6).value;
    EXPECT_EQ(abdada_serial_search(g, 6).value, oracle) << "seed=" << seed;
  }
}

TEST(Abdada, SearcherWithTablesMatchesAlphaBeta) {
  // Same equivalence with live TT + nproc table on a single thread: the
  // depth-exact gating must keep every cutoff value-preserving.  Horizon
  // leaves bypass both tables, so at depth 1 only the root probes and
  // stores.
  for (const int depth : {1, 6}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const UniformRandomTree g(5, 6, seed + 700, -80, 80);
      const Value oracle = alpha_beta_search(g, depth).value;
      ConcurrentTranspositionTable tt(14);
      NprocTable nproc(10);
      AbdadaSearcher<UniformRandomTree> s(g, depth);
      s.with_shared_table(&tt).with_nproc_table(&nproc);
      const SearchResult r = s.run();
      EXPECT_EQ(r.value, oracle) << "depth=" << depth << " seed=" << seed;
      if (depth == 1) {
        EXPECT_EQ(r.stats.tt_probes, 1u) << "seed=" << seed;
        EXPECT_EQ(r.stats.tt_stores, 1u) << "seed=" << seed;
        EXPECT_EQ(tt.occupancy(), 1u) << "seed=" << seed;
      } else {
        EXPECT_GT(r.stats.tt_probes, 0u);
      }
      EXPECT_TRUE(nproc.all_idle()) << "enter/leave must balance";
    }
  }
}

// --- multi-thread value determinism ----------------------------------------

TEST(Abdada, ValueDeterministicAcrossThreadCountsRandomTree) {
  // Three unsorted trees, which run one full-window iteration, and one
  // sorted tree whose shallow estimate is noise (leaves span ±10,000), so
  // its guess window fails and the root re-searches once at every thread
  // count.
  struct Input {
    UniformRandomTree tree;
    bool sorted;
  };
  std::vector<Input> inputs;
  for (std::uint64_t seed = 0; seed < 3; ++seed)
    inputs.push_back({UniformRandomTree(4, 6, seed + 40, -90, 90), false});
  inputs.push_back({UniformRandomTree(4, 6, 41), true});
  for (const auto& [g, sorted] : inputs) {
    const Value oracle = alpha_beta_search(g, 6).value;
    if (sorted) {
      const Value estimate = alpha_beta_search(g, 6 - kAspirationPlies).value;
      ASSERT_GT(std::abs(estimate - oracle), kAspirationDelta)
          << "the sorted input must fail its guess window";
    }
    for (const int threads : {2, 4, 8}) {
      baselines::AbdadaOptions opt;
      opt.threads = threads;
      opt.ordering.sort_by_static_value = sorted;
      const auto r = baselines::abdada_parallel_search(g, 6, opt);
      EXPECT_EQ(r.value, oracle) << "sorted=" << sorted << " threads=" << threads;
      EXPECT_EQ(r.researches, sorted ? 1 : 0) << "threads=" << threads;
      // Every root iteration's claimed value is exact too.
      for (const auto& d : r.per_depth)
        EXPECT_EQ(d.value, alpha_beta_search(g, d.depth).value)
            << "depth=" << d.depth << " threads=" << threads;
    }
  }
}

TEST(Abdada, ValueDeterministicAcrossThreadCountsOthello) {
  const othello::OthelloGame g(othello::paper_position(2));
  const Value oracle = alpha_beta_search(g, 5).value;
  for (const int threads : {2, 4, 8}) {
    baselines::AbdadaOptions opt;
    opt.threads = threads;
    opt.ordering.sort_by_static_value = true;
    const auto r = baselines::abdada_parallel_search(g, 5, opt);
    EXPECT_EQ(r.value, oracle) << "threads=" << threads;
    EXPECT_EQ(static_cast<int>(r.per_thread.size()), threads);
    // Phase-two revisits can only come from phase-one deferrals.
    EXPECT_LE(r.stats.moves_revisited, r.stats.moves_deferred);
  }
}

// --- root schedule ----------------------------------------------------------

TEST(Abdada, RootIterationsFollowTheAspirationGate) {
  // A sorted search deeper than kAspirationPlies runs one full-window
  // iteration kAspirationPlies shallower, then the real depth under the
  // aspiration window; an unsorted search, and a sorted one too shallow for
  // an estimate, run the real depth once.
  struct Case {
    bool sorted;
    int depth;
    std::vector<int> iterations;
  };
  const othello::OthelloGame g(othello::paper_position(1));
  for (const Case& c : {Case{true, 5, {5 - kAspirationPlies, 5}},
                        Case{true, kAspirationPlies, {kAspirationPlies}},
                        Case{false, 5, {5}}}) {
    baselines::AbdadaOptions opt;
    opt.threads = 2;
    opt.ordering.sort_by_static_value = c.sorted;
    const auto r = baselines::abdada_parallel_search(g, c.depth, opt);
    std::vector<int> iterations;
    for (const auto& d : r.per_depth) {
      iterations.push_back(d.depth);
      EXPECT_EQ(d.value, alpha_beta_search(g, d.depth).value)
          << "depth=" << d.depth;
    }
    EXPECT_EQ(iterations, c.iterations)
        << "sorted=" << c.sorted << " depth=" << c.depth;
    EXPECT_EQ(r.value, alpha_beta_search(g, c.depth).value);
  }
}

TEST(Abdada, FourThreadsMatchAlphaBetaOnBenchmarkShapes) {
  // perfbench's two workloads at their own shapes: self-play Othello
  // midgames at depth 7 sorted to ply 6 (the aspirated root) and 8-wide
  // random trees at depth 7 (one full-window iteration).
  baselines::AbdadaOptions opt;
  opt.threads = 4;
  opt.ordering.sort_by_static_value = true;
  opt.ordering.max_sort_ply = 6;
  for (const int plies : {11, 15, 19}) {
    const othello::OthelloGame g(
        othello::selfplay_position(plies, static_cast<std::uint64_t>(plies)));
    const auto r = baselines::abdada_parallel_search(g, 7, opt);
    EXPECT_EQ(r.value, alpha_beta_search(g, 7, opt.ordering).value)
        << "plies=" << plies;
    EXPECT_EQ(r.per_depth.size(), 2u);
  }
  opt.ordering = {};
  for (const std::uint64_t seed : {31u, 41u, 97u}) {
    const UniformRandomTree g(8, 7, seed);
    const auto r = baselines::abdada_parallel_search(g, 7, opt);
    EXPECT_EQ(r.value, alpha_beta_search(g, 7).value) << "seed=" << seed;
    EXPECT_EQ(r.per_depth.size(), 1u);
  }
}

// --- abort / stop-flag semantics -------------------------------------------

TEST(Abdada, PreRaisedStopAbortsWithoutStores) {
  const UniformRandomTree g(4, 6, 9, -50, 50);
  ConcurrentTranspositionTable tt(12);
  NprocTable nproc(10);
  std::atomic<bool> stop{true};
  AbdadaSearcher<UniformRandomTree> s(g, 6);
  s.with_shared_table(&tt).with_nproc_table(&nproc).with_stop(&stop);
  const SearchResult r = s.run();
  EXPECT_TRUE(s.aborted());
  EXPECT_EQ(r.stats.tt_stores, 0u)
      << "an aborted search must not write the shared table";
  EXPECT_EQ(tt.occupancy(), 0u);
  EXPECT_TRUE(nproc.all_idle());
}

// --- trace wiring -----------------------------------------------------------

TEST(Abdada, TraceInstantsAgreeWithStats) {
  // abdada_defer / abdada_revisit instants must match the SearchStats
  // counters exactly (no drops at this size), whatever their count is.
  const othello::OthelloGame g(othello::paper_position(1));
  obs::TraceSession session(4);
  baselines::AbdadaOptions opt;
  opt.threads = 4;
  opt.trace = &session;
  const auto r = baselines::abdada_parallel_search(g, 4, opt);
  ASSERT_EQ(session.total_dropped(), 0u);
  std::uint64_t defers = 0;
  std::uint64_t revisits = 0;
  for (const obs::TraceEvent& e : session.merged()) {
    if (e.kind == obs::EventKind::kAbdadaDefer) ++defers;
    if (e.kind == obs::EventKind::kAbdadaRevisit) ++revisits;
  }
  EXPECT_EQ(defers, r.stats.moves_deferred);
  EXPECT_EQ(revisits, r.stats.moves_revisited);
}

// --- parallel hammer through the real search (tsan lane) --------------------

TEST(Abdada, ParallelSearchHammerOverSharedTables) {
  // 8 workers through one TT + one deliberately tiny nproc table (heavy
  // slot aliasing → constant deferral traffic) on a bushy tree: the value
  // must stay exact and the tables quiescent.  This is the tsan target for
  // the searcher's shared-state interactions.
  const UniformRandomTree g(6, 5, 77, -90, 90);
  const Value oracle = alpha_beta_search(g, 5).value;
  baselines::AbdadaOptions opt;
  opt.threads = 8;
  opt.nproc_log2 = 6;  // 64 slots shared by thousands of nodes
  const auto r = baselines::abdada_parallel_search(g, 5, opt);
  EXPECT_EQ(r.value, oracle);
  EXPECT_LE(r.stats.moves_revisited, r.stats.moves_deferred);
}

}  // namespace
}  // namespace ers
