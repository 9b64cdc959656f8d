// Real-concurrency correctness of the shared-memory runtime: the thread
// executor must terminate and produce the exact negmax value under OS
// scheduling nondeterminism.

#include "runtime/thread_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/negmax.hpp"
#include "tictactoe/tictactoe.hpp"

namespace ers {
namespace {

core::EngineConfig cfg(int depth, int serial) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  return c;
}

TEST(ThreadExecutor, SingleThreadMatchesNegmax) {
  const UniformRandomTree g(4, 5, 41, -100, 100);
  const auto r = parallel_er_threads(g, cfg(5, 3), 1);
  EXPECT_EQ(r.value, negmax_search(g, 5).value);
}

TEST(ThreadExecutor, MultiThreadMatchesNegmax) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const UniformRandomTree g(4, 5, seed, -100, 100);
    const Value oracle = negmax_search(g, 5).value;
    for (int threads : {2, 4}) {
      const auto r = parallel_er_threads(g, cfg(5, 3), threads);
      EXPECT_EQ(r.value, oracle) << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ThreadExecutor, RepeatedRunsAreStableInValue) {
  // Schedules differ run to run; the value must not.
  const UniformRandomTree g(5, 5, 7, -100, 100);
  const Value oracle = negmax_search(g, 5).value;
  for (int i = 0; i < 5; ++i) {
    const auto r = parallel_er_threads(g, cfg(5, 3), 4);
    EXPECT_EQ(r.value, oracle) << "run " << i;
  }
}

TEST(ThreadExecutor, TinyTreeManyThreads) {
  // More threads than work units: workers must park and wake correctly.
  const UniformRandomTree g(2, 2, 3, -10, 10);
  const auto r = parallel_er_threads(g, cfg(2, 1), 8);
  EXPECT_EQ(r.value, negmax_search(g, 2).value);
}

TEST(ThreadExecutor, DegenerateDepthZero) {
  const UniformRandomTree g(4, 4, 3, -10, 10);
  const auto r = parallel_er_threads(g, cfg(0, 0), 4);
  EXPECT_EQ(r.value, g.evaluate(g.root()));
}

TEST(ThreadExecutor, TicTacToeDraw) {
  const TicTacToe g;
  const auto r = parallel_er_threads(g, cfg(9, 4), 4);
  EXPECT_EQ(r.value, 0);
}

TEST(ThreadExecutor, OthelloMatchesSerial) {
  const othello::OthelloGame g(othello::paper_position(1));
  const Value oracle = negmax_search(g, 4).value;
  const auto r = parallel_er_threads(g, cfg(4, 2), 4);
  EXPECT_EQ(r.value, oracle);
}

TEST(ThreadExecutor, FullyParallelCutover) {
  const UniformRandomTree g(3, 4, 11, -50, 50);
  const auto r = parallel_er_threads(g, cfg(4, 4), 4);
  EXPECT_EQ(r.value, negmax_search(g, 4).value);
}

TEST(ThreadExecutor, UnitsAccounted) {
  const UniformRandomTree g(4, 4, 13, -50, 50);
  core::Engine<UniformRandomTree> engine(g, cfg(4, 2));
  runtime::ThreadExecutor<core::Engine<UniformRandomTree>> exec(2);
  const auto report = exec.run(engine);
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(report.units, engine.stats().units_processed);
  EXPECT_EQ(report.threads, 2);
}

TEST(ThreadExecutor, DeterminismSweepRandomTrees) {
  // Same root value at every thread count, under real OS nondeterminism.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const UniformRandomTree g(4, 5, seed + 50, -100, 100);
    const Value oracle = negmax_search(g, 5).value;
    for (const int threads : {1, 2, 4, 8}) {
      const auto r = parallel_er_threads(g, cfg(5, 3), threads);
      EXPECT_EQ(r.value, oracle) << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ThreadExecutor, DeterminismSweepOthelloMidgame) {
  const othello::OthelloGame g(othello::paper_position(2));
  const Value oracle = negmax_search(g, 4).value;
  for (const int threads : {1, 2, 4, 8}) {
    const auto r = parallel_er_threads(g, cfg(4, 2), threads);
    EXPECT_EQ(r.value, oracle) << "threads=" << threads;
  }
}

TEST(ThreadExecutor, SchedulerStatsAreCoherent) {
  const UniformRandomTree g(4, 5, 17, -100, 100);
  core::Engine<UniformRandomTree> engine(g, cfg(5, 3));
  runtime::ThreadExecutor<core::Engine<UniformRandomTree>> exec(4);
  const auto report = exec.run(engine);
  const auto& s = report.sched;
  EXPECT_EQ(s.units, engine.stats().units_processed);
  // Every unit takes one acquire and one commit section; acquires that
  // find nothing runnable add sections of their own.
  EXPECT_GE(s.lock_acquisitions, 2 * s.units);
  EXPECT_GT(report.elapsed_ns, 0u);
  EXPECT_GE(report.lock_wait_share(), 0.0);
  EXPECT_LE(report.lock_wait_share(), 1.0);
}

/// A random tree whose evaluator throws once its budget of evaluations is
/// spent, on whichever worker gets there.
struct ThrowingTree {
  using Position = UniformRandomTree::Position;
  const UniformRandomTree& tree;
  mutable std::atomic<int> budget;
  [[nodiscard]] Position root() const { return tree.root(); }
  void generate_children(const Position& p, std::vector<Position>& out) const {
    tree.generate_children(p, out);
  }
  [[nodiscard]] Value evaluate(const Position& p) const {
    if (budget.fetch_sub(1) <= 0) throw std::runtime_error("evaluator failed");
    return tree.evaluate(p);
  }
};

TEST(ThreadExecutor, WorkerExceptionReachesCaller) {
  // A worker that throws holds units its peers would wait for; the run
  // must end with the exception in the caller, not park forever, and the
  // next run on the same helpers must work.
  const UniformRandomTree g(4, 6, 19, -100, 100);
  for (const int threads : {4, 1}) {
    const ThrowingTree bad{g, 200};
    EXPECT_THROW((void)parallel_er_threads(bad, cfg(6, 2), threads),
                 std::runtime_error)
        << "threads=" << threads;
  }
  EXPECT_EQ(parallel_er_threads(g, cfg(6, 2), 4).value,
            negmax_search(g, 6).value);
}

}  // namespace
}  // namespace ers
