// Persistent workers (runtime/worker_pool.hpp): helpers are created once per
// calling thread and reused by every later run, exceptions reach the caller
// only after every call has returned, parallel ER and ABDADA share one
// caller's helpers, and concurrent callers keep their own.

#include "runtime/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/abdada_par.hpp"
#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"

namespace ers {
namespace {

core::EngineConfig cfg(int depth) {
  core::EngineConfig c;
  c.search_depth = depth;
  return c;
}

TEST(WorkerPool, HelpersPersistAcrossRuns) {
  // ids[run][index]: the thread that ran job(index) in that run.
  std::vector<std::vector<std::thread::id>> ids;
  for (const int n : {4, 2, 4, 1}) {
    std::vector<std::thread::id> seen(static_cast<std::size_t>(n));
    auto job = [&](int i) {
      seen[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    };
    runtime::run_on_workers(n, job);
    ids.push_back(seen);
  }
  const std::set<std::thread::id> first(ids[0].begin(), ids[0].end());
  EXPECT_EQ(first.size(), 4u) << "each index runs on its own thread";
  for (std::size_t run = 0; run < ids.size(); ++run) {
    EXPECT_EQ(ids[run][0], std::this_thread::get_id())
        << "index 0 runs on the caller (run " << run << ")";
    for (std::size_t i = 1; i < ids[run].size(); ++i)
      EXPECT_EQ(ids[run][i], ids[0][i])
          << "index " << i << " changed thread in run " << run;
  }
}

TEST(WorkerPool, ExceptionReachesCallerAfterEveryCallReturns) {
  // A helper index throws, then index 0 (the caller's own call): either
  // way the other three calls must have returned before the rethrow.
  for (const int thrower : {2, 0}) {
    const std::string what = "job " + std::to_string(thrower);
    std::atomic<int> returned{0};
    auto job = [&](int i) {
      if (i == thrower) throw std::runtime_error(what);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      returned.fetch_add(1);
    };
    try {
      runtime::run_on_workers(4, job);
      ADD_FAILURE() << "no exception from " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), what);
      EXPECT_EQ(returned.load(), 3) << "rethrown before every call returned";
    }
  }
  // The pool still works after both failures.
  std::atomic<int> ran{0};
  auto count = [&](int) { ran.fetch_add(1); };
  runtime::run_on_workers(4, count);
  EXPECT_EQ(ran.load(), 4);
}

#if GTEST_HAS_DEATH_TEST
TEST(WorkerPoolDeathTest, NestedCallOnTheSameThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto inner = [](int) {};
  auto outer = [&](int) { runtime::run_on_workers(1, inner); };
  EXPECT_DEATH(runtime::run_on_workers(1, outer), "inside a job");
}
#endif

TEST(WorkerPool, MixedSearchesOnOneCaller) {
  // Parallel ER at 4, 1 and 2 threads and ABDADA at 4, interleaved the way
  // perfbench interleaves them, all on this thread's helpers.
  for (int i = 0; i < 10; ++i) {
    const auto check = [i](const auto& game, int depth) {
      const Value oracle = alpha_beta_search(game, depth).value;
      for (const int threads : {4, 1, 2})
        EXPECT_EQ(parallel_er_threads(game, cfg(depth), threads).value, oracle)
            << "input " << i << ", ER at " << threads << " threads";
      baselines::AbdadaOptions opt;
      opt.threads = 4;
      EXPECT_EQ(baselines::abdada_parallel_search(game, depth, opt).value,
                oracle)
          << "input " << i << ", ABDADA";
    };
    if (i % 2 == 0) {
      check(UniformRandomTree(5, 5, 200 + static_cast<std::uint64_t>(i), -100,
                              100),
            5);
    } else {
      check(othello::OthelloGame(
                othello::selfplay_position(8, static_cast<std::uint64_t>(i))),
            4);
    }
  }
}

TEST(WorkerPool, ConcurrentCallersKeepTheirOwnHelpers) {
  std::atomic<int> wrong{0};
  // Both callers' helpers are alive once both have passed the latch, so
  // their ids cannot have been reused from an exited thread.
  std::thread::id helper[2];
  std::latch both_started(2);
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&wrong, &helper, &both_started, c] {
      auto note = [&](int i) {
        if (i == 1) helper[c] = std::this_thread::get_id();
      };
      runtime::run_on_workers(2, note);
      both_started.arrive_and_wait();
      for (int i = 0; i < 10; ++i) {
        const UniformRandomTree g(
            4, 6, 300 + static_cast<std::uint64_t>(10 * c + i), -100, 100);
        if (parallel_er_threads(g, cfg(6), 2).value !=
            alpha_beta_search(g, 6).value)
          wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_NE(helper[0], helper[1]) << "two callers shared a helper";
}

}  // namespace
}  // namespace ers
