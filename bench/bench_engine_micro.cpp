// Microbenchmarks (google-benchmark) of the building blocks: Othello move
// generation and evaluation, the implicit random-tree primitives, and the
// end-to-end problem-heap engine (simulated and threaded executors).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/eval.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"

namespace {

using namespace ers;

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
  // moves, then one apply_move (flips and the new bitboards) per child.
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
