// Microbenchmarks (google-benchmark) of the building blocks: Othello move
// generation and evaluation, the implicit random-tree primitives, and the
// end-to-end problem-heap engine (simulated and threaded executors).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/eval.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace ers;

/// Peak resident set of this process in KiB (0 where getrusage is
/// unavailable).  Attached as a counter so the CI bench guard can fail on
/// memory growth the same way it fails on throughput loss.
double peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // bytes on macOS
#else
    return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
#endif
  }
#endif
  return 0.0;
}

void BM_OthelloLegalMoves(benchmark::State& state) {
  const othello::Board b = othello::paper_position(1);
  for (auto _ : state) benchmark::DoNotOptimize(othello::legal_moves(b));
}
BENCHMARK(BM_OthelloLegalMoves);

void BM_OthelloApplyMove(benchmark::State& state) {
  const othello::Board b = othello::paper_position(1);
  const int sq = othello::lsb(othello::legal_moves(b));
  for (auto _ : state) benchmark::DoNotOptimize(othello::apply_move(b, sq));
}
BENCHMARK(BM_OthelloApplyMove);

void BM_OthelloEvaluate(benchmark::State& state) {
  const othello::Board b = othello::paper_position(2);
  for (auto _ : state) benchmark::DoNotOptimize(othello::evaluate_board(b));
}
BENCHMARK(BM_OthelloEvaluate);

void BM_OthelloPerft4(benchmark::State& state) {
  const othello::Board b = othello::initial_board();
  for (auto _ : state) benchmark::DoNotOptimize(othello::perft(b, 4));
}
BENCHMARK(BM_OthelloPerft4);

void BM_RandomTreeChildren(benchmark::State& state) {
  const UniformRandomTree g(8, 7, 303);
  std::vector<UniformRandomTree::Position> kids;
  for (auto _ : state) {
    kids.clear();
    g.generate_children(g.root(), kids);
    benchmark::DoNotOptimize(kids.data());
  }
}
BENCHMARK(BM_RandomTreeChildren);

void BM_OthelloGenerateChildren(benchmark::State& state) {
  // The call the searchers make at every interior node: the mover's legal
  // moves, then one apply_move (flips plus incremental hash) per child.
  // Arg is the paper root O1..O3.
  const othello::OthelloGame g(othello::paper_position(static_cast<int>(state.range(0))));
  const othello::OthelloGame::Position root = g.root();
  std::vector<othello::OthelloGame::Position> kids;
  for (auto _ : state) {
    kids.clear();
    g.generate_children(root, kids);
    benchmark::DoNotOptimize(kids.data());
    benchmark::ClobberMemory();
  }
  state.counters["children"] = static_cast<double>(kids.size());
}
BENCHMARK(BM_OthelloGenerateChildren)->DenseRange(1, 3);

void BM_ParallelErSim(benchmark::State& state) {
  const UniformRandomTree g(4, 7, 11, -1000, 1000);
  core::EngineConfig cfg;
  cfg.search_depth = 7;
  cfg.serial_depth = 4;
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = parallel_er_sim(g, cfg, procs);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_ParallelErSim)->Arg(1)->Arg(4)->Arg(16);

void BM_EngineCommitContention(benchmark::State& state) {
  // Commit-under-contention: T raw protocol drivers hammer the engine with
  // acquire/compute/commit loops — no executor parking to smooth the
  // interleavings — so elapsed time is dominated by the engine's lock
  // sections: the pure synchronization path.
  const UniformRandomTree g(4, 6, 17, -1000, 1000);
  core::EngineConfig cfg;
  cfg.search_depth = 6;
  cfg.serial_depth = 4;
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t units = 0;
  for (auto _ : state) {
    core::Engine<UniformRandomTree> engine(g, cfg);
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      drivers.emplace_back([&engine] {
        while (!engine.done()) {
          const auto item = engine.acquire();
          if (!item) {
            std::this_thread::yield();
            continue;
          }
          engine.commit(*item, engine.compute(*item));
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    units += engine.stats().units_processed;
  }
  state.counters["units/s"] = benchmark::Counter(
      static_cast<double>(units), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineCommitContention)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_NodeChurn(benchmark::State& state) {
  // Node-lifecycle churn: run the engine to completion with speculation on
  // (spec cancellations + ancestor cutoffs kill subtrees mid-flight), so the
  // loop exercises the full expand -> cancel -> reclaim cycle of the
  // two-tier node storage — slab allocation at commit_expand, dead-drop and
  // finish-time reclamation, freelist recycling (DESIGN.md §15).  The
  // single protocol driver keeps the measurement on the storage path, not
  // on scheduler interleaving.
  const UniformRandomTree g(5, 7, 29, -1000, 1000);
  core::EngineConfig cfg;
  cfg.search_depth = 7;
  cfg.serial_depth = 5;
  std::uint64_t nodes = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t peak_bytes = 0;
  for (auto _ : state) {
    core::Engine<UniformRandomTree> engine(g, cfg);
    while (!engine.done()) {
      const auto item = engine.acquire();
      if (!item) continue;
      engine.commit(*item, engine.compute(*item));
    }
    const core::EngineMemStats m = engine.mem_stats();
    nodes += m.live_nodes;
    reclaimed += m.cold_reclaimed;
    peak_bytes = std::max(peak_bytes, m.peak_bytes);
  }
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["cold_reclaimed"] = benchmark::Counter(
      static_cast<double>(reclaimed), benchmark::Counter::kAvgIterations);
  state.counters["bytes_per_node"] =
      nodes > 0 ? static_cast<double>(peak_bytes) /
                      (static_cast<double>(nodes) /
                       static_cast<double>(state.iterations()))
                : 0.0;
  state.counters["peak_rss_kb"] = peak_rss_kb();
}
BENCHMARK(BM_NodeChurn)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelErThreads(benchmark::State& state) {
  const UniformRandomTree g(4, 7, 11, -1000, 1000);
  core::EngineConfig cfg;
  cfg.search_depth = 7;
  cfg.serial_depth = 4;
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = parallel_er_threads(g, cfg, threads);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_ParallelErThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
