// Correctness of the parallel ER problem-heap engine: for every tree, every
// processor count and every serial-depth cutover, the root value must equal
// serial negmax.  Under a root window the root
// fails low, fails high or is exact, as the window says.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>

#include "core/parallel_er.hpp"
#include "gametree/explicit_tree.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "randomtree/strongly_ordered.hpp"
#include "runtime/thread_executor.hpp"
#include "search/alpha_beta.hpp"
#include "search/negmax.hpp"
#include "tictactoe/tictactoe.hpp"

namespace ers {
namespace {

core::EngineConfig config_for(int depth, int serial_depth) {
  core::EngineConfig cfg;
  cfg.search_depth = depth;
  cfg.serial_depth = serial_depth;
  return cfg;
}

TEST(Engine, SingleLeafTree) {
  ExplicitTree t;
  t.set_value(0, 13);
  const auto r = parallel_er_sim(t, config_for(5, 2), 4);
  EXPECT_EQ(r.value, 13);
}

TEST(Engine, FullySerialCutover) {
  // serial_depth == 0: the root itself is one serial unit.
  const UniformRandomTree g(3, 4, 9);
  const auto r = parallel_er_sim(g, config_for(4, 0), 8);
  EXPECT_EQ(r.value, negmax_search(g, 4).value);
  EXPECT_EQ(r.engine.serial_units, 1u);
}

TEST(Engine, FullyParallelNoCutover) {
  // serial_depth == search_depth: every horizon leaf is its own unit.
  const UniformRandomTree g(3, 3, 10);
  const auto r = parallel_er_sim(g, config_for(3, 3), 4);
  EXPECT_EQ(r.value, negmax_search(g, 3).value);
}

TEST(Engine, UnaryChain) {
  ExplicitTree t;
  auto a = t.add_child(0);
  auto b = t.add_child(a);
  t.add_child(b, 21);
  for (int p : {1, 3}) {
    const auto r = parallel_er_sim(t, config_for(10, 2), p);
    EXPECT_EQ(r.value, -21) << "p=" << p;
  }
}

TEST(Engine, TerminalsAboveCutover) {
  // A tree whose branches end before both the horizon and the cutover.
  ExplicitTree t;
  t.add_child(0, 5);                     // leaf at ply 1
  const auto deep = t.add_child(0);      // interior
  t.add_child(deep, 7);
  t.add_child(deep, -2);
  const auto r = parallel_er_sim(t, config_for(8, 6), 4);
  EXPECT_EQ(r.value, t.negmax_value());
}

struct EngineCase {
  int degree;
  int height;
  Value range;
  int serial_depth;
  int processors;
};

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<EngineCase, std::uint64_t>> {};

TEST_P(EngineEquivalence, SimMatchesNegmax) {
  const auto& [c, seed] = GetParam();
  const UniformRandomTree g(c.degree, c.height, seed, -c.range, c.range);
  const Value oracle = negmax_search(g, c.height).value;
  const auto r = parallel_er_sim(g, config_for(c.height, c.serial_depth),
                                 c.processors);
  EXPECT_EQ(r.value, oracle);
}

std::string engine_case_name(
    const ::testing::TestParamInfo<EngineEquivalence::ParamType>& info) {
  const auto& [c, seed] = info.param;
  // append, not operator+: g++ 12 -O3 flags "d" + std::to_string(...) with a
  // false -Wrestrict.
  std::string name("d");
  name.append(std::to_string(c.degree))
      .append("h")
      .append(std::to_string(c.height))
      .append("sd")
      .append(std::to_string(c.serial_depth))
      .append("p")
      .append(std::to_string(c.processors))
      .append("s")
      .append(std::to_string(seed));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Combine(::testing::Values(EngineCase{3, 4, 30, 2, 1},
                                         EngineCase{3, 4, 30, 2, 4},
                                         EngineCase{3, 4, 30, 2, 16},
                                         EngineCase{3, 5, 30, 3, 8},
                                         EngineCase{4, 4, 5, 2, 8},   // ties
                                         EngineCase{2, 7, 100, 4, 8},
                                         EngineCase{5, 3, 1000, 1, 8},
                                         EngineCase{4, 4, 30, 4, 8},
                                         EngineCase{4, 4, 30, 0, 8},
                                         EngineCase{1, 5, 9, 2, 4},   // unary
                                         EngineCase{3, 5, 40, 2, 1},
                                         EngineCase{3, 5, 40, 2, 4},
                                         EngineCase{3, 5, 40, 2, 12}),
                       ::testing::Range<std::uint64_t>(0, 10)),
    engine_case_name);

TEST(Engine, VaryingDegreeTrees) {
  StronglyOrderedTree::Config c;
  c.min_degree = 1;
  c.max_degree = 6;
  c.height = 5;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    c.seed = seed + 900;
    const StronglyOrderedTree g(c);
    const Value oracle = negmax_search(g, 5).value;
    const auto r = parallel_er_sim(g, config_for(5, 3), 8);
    EXPECT_EQ(r.value, oracle) << "seed=" << c.seed;
  }
}

TEST(Engine, TicTacToeIsDraw) {
  const TicTacToe g;
  const auto r = parallel_er_sim(g, config_for(9, 4), 8);
  EXPECT_EQ(r.value, 0);
}

TEST(Engine, OrderingPolicyKeepsExactness) {
  core::EngineConfig cfg = config_for(5, 3);
  cfg.ordering = OrderingPolicy{.sort_by_static_value = true, .max_sort_ply = 5};
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const UniformRandomTree g(4, 5, seed, -60, 60);
    EXPECT_EQ(parallel_er_sim(g, cfg, 6).value, negmax_search(g, 5).value)
        << "seed=" << seed;
  }
}

TEST(Engine, SpeculativePromotionsHappenOnWideTrees) {
  const UniformRandomTree g(6, 4, 77, -100, 100);
  const auto r = parallel_er_sim(g, config_for(4, 2), 16);
  EXPECT_GT(r.engine.promotions_speculative, 0u)
      << "16 processors on a wide tree must exercise the speculative queue";
  // The first e-child selection happens either via Table 2 row 2 (mandatory)
  // or earlier through the speculative queue; both count as selections.
  EXPECT_GT(r.engine.promotions_mandatory + r.engine.promotions_speculative, 0u);
}

TEST(Engine, PaperRankPinAtSixteenProcessors) {
  // Pins the speculative queue's rank (paper §6: fewer e-children first,
  // then shallower, then the earlier push).  At the paper grain, serial
  // depth 5, this run makes 12 speculative promotions, enough that another
  // rank moves every counter below (EXPERIMENTS.md, "One speculation
  // rank"); SchedulePin's default grain makes too few to tell ranks apart.
  const UniformRandomTree g(8, 7, 7);
  const auto r = parallel_er_sim(g, config_for(7, 5), 16);
  EXPECT_EQ(r.value, 6496);
  EXPECT_EQ(r.engine.search.nodes_generated(), 182'645u);
  EXPECT_EQ(r.engine.units_processed, 13'662u);
  EXPECT_EQ(r.metrics.makespan, 81'780u);
  EXPECT_EQ(r.engine.promotions_speculative, 12u);
}

TEST(Engine, MoreProcessorsExamineAtLeastAsManyNodesUsually) {
  // Speculative loss: parallel runs examine more nodes than P=1 (this is
  // Figure 12/13's phenomenon).  Deterministic for fixed seeds.
  const UniformRandomTree g(4, 6, 3, -100, 100);
  const auto p1 = parallel_er_sim(g, config_for(6, 3), 1);
  const auto p8 = parallel_er_sim(g, config_for(6, 3), 8);
  EXPECT_GE(p8.engine.search.nodes_generated(),
            p1.engine.search.nodes_generated());
}

TEST(Engine, ParallelTimeNotWorseThanSerialTimeOnBigTree) {
  const UniformRandomTree g(4, 6, 5, -100, 100);
  const auto p1 = parallel_er_sim(g, config_for(6, 3), 1);
  const auto p8 = parallel_er_sim(g, config_for(6, 3), 8);
  EXPECT_LT(p8.metrics.makespan, p1.metrics.makespan)
      << "8 simulated processors should beat 1 on a 4^6 tree";
}

TEST(Engine, StatsAreInternallyConsistent) {
  const UniformRandomTree g(4, 5, 6, -50, 50);
  const auto r = parallel_er_sim(g, config_for(5, 3), 4);
  EXPECT_GT(r.engine.units_processed, 0u);
  EXPECT_GT(r.engine.serial_units, 0u);
  EXPECT_GT(r.engine.search.leaves_evaluated, 0u);
  EXPECT_EQ(r.metrics.units, r.engine.units_processed);
}

TEST(Engine, MissWithAUnitInFlightIsNotAStall) {
  // Nothing queued but the root in flight: the miss is a wait, not a stall,
  // and committing the root queues its children.
  const UniformRandomTree g(4, 4, 5, -50, 50);
  core::Engine<UniformRandomTree> engine(g, config_for(4, 2));
  const auto root = engine.acquire();
  ASSERT_TRUE(root.has_value());
  EXPECT_FALSE(engine.acquire().has_value());
  engine.commit(*root, engine.compute(*root));
  const auto child = engine.acquire();
  ASSERT_TRUE(child.has_value());
  EXPECT_NE(child->node, 0u);
}

/// Search `g` under root window `w` on `threads` workers: a plain
/// acquire/compute/commit loop on this thread at 1, the thread executor
/// otherwise.
/// Returns the root value and, through `move`, the best root child.
template <Game G>
Value run_with_root_window(const G& g, const core::EngineConfig& cfg,
                           Window w, int threads,
                           std::optional<typename G::Position>& move) {
  core::Engine<G> engine(g, cfg, w);
  if (threads == 1) {
    while (!engine.done()) {
      const auto item = engine.acquire();
      if (!item) break;  // a stall aborts inside acquire()
      engine.commit(*item, engine.compute(*item));
    }
  } else {
    runtime::ThreadExecutor<core::Engine<G>> exec(threads);
    (void)exec.run(engine);
  }
  EXPECT_TRUE(engine.done());
  move = engine.best_root_position();
  return engine.root_value();
}

/// Root windows around the true value v: a window holding v returns v
/// exactly, with a best move whose child achieves it; a window above v
/// fails low (value <= alpha) and one below fails high (value >= beta).
/// Each at the given cutover and at cutover 0, where the root is one
/// serial unit (and names no move).
template <Game G>
void check_root_windows(const G& g, core::EngineConfig cfg,
                        const std::string& what) {
  const int d = cfg.search_depth;
  const Value v = alpha_beta_search(g, d, cfg.ordering).value;
  const Window exact{v - 1, v + 1};
  const Window above[] = {{v, v + 50}, {v + 100, v + 400}};
  const Window below[] = {{v - 50, v}, {v - 400, v - 100}};
  for (const int serial : {cfg.serial_depth, 0}) {
    cfg.serial_depth = serial;
    for (const int threads : {1, 4}) {
      const std::string where = what + " serial_depth=" +
                                std::to_string(serial) +
                                " threads=" + std::to_string(threads);
      std::optional<typename G::Position> move;
      EXPECT_EQ(run_with_root_window(g, cfg, exact, threads, move), v)
          << where;
      if (serial > 0) {
        ASSERT_TRUE(move.has_value()) << where;
        AlphaBetaSearcher<G> child(g, d, cfg.ordering);
        EXPECT_EQ(negate(child.run_from(*move, 1).value), v) << where;
      }
      for (const Window w : above)
        EXPECT_LE(run_with_root_window(g, cfg, w, threads, move), w.alpha)
            << where << " window (" << w.alpha << ", " << w.beta << ")";
      for (const Window w : below)
        EXPECT_GE(run_with_root_window(g, cfg, w, threads, move), w.beta)
            << where << " window (" << w.alpha << ", " << w.beta << ")";
    }
  }
}

TEST(Engine, RootWindowOnRandomTrees) {
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    check_root_windows(UniformRandomTree(4, 6, seed, -1000, 1000),
                       config_for(6, 2),
                       std::string("seed=").append(std::to_string(seed)));
}

TEST(Engine, RootWindowOnOthello) {
  core::EngineConfig cfg = config_for(5, 2);
  cfg.ordering = OrderingPolicy{.sort_by_static_value = true, .max_sort_ply = 6};
  for (int idx = 1; idx <= 3; ++idx)
    check_root_windows(othello::OthelloGame(othello::paper_position(idx)), cfg,
                       std::string("O").append(std::to_string(idx)));
}

TEST(Engine, QueuedCountReflectsQueues) {
  const UniformRandomTree g(4, 4, 5, -50, 50);
  core::Engine<UniformRandomTree> engine(g, config_for(4, 2));
  EXPECT_EQ(engine.queued_count(), 1u) << "the root starts queued";
  const auto root = engine.acquire();
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->node, 0u);
  EXPECT_EQ(engine.queued_count(), 0u) << "acquiring the root drains the queue";
}

}  // namespace
}  // namespace ers
