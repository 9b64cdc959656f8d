// Correctness of the parallel ER problem-heap engine: for every tree, every
// processor count, every serial-depth cutover and every speculation setting,
// the root value must equal serial negmax.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/parallel_er.hpp"
#include "gametree/explicit_tree.hpp"
#include "randomtree/random_tree.hpp"
#include "randomtree/strongly_ordered.hpp"
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
  return "d" + std::to_string(c.degree) + "h" + std::to_string(c.height) +
         "sd" + std::to_string(c.serial_depth) + "p" +
         std::to_string(c.processors) + "s" + std::to_string(seed);
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
                                         EngineCase{1, 5, 9, 2, 4}),   // unary
                       ::testing::Range<std::uint64_t>(0, 10)),
    engine_case_name);

class SpeculationAblation : public ::testing::TestWithParam<int> {};

TEST_P(SpeculationAblation, AllTogglesStayExact) {
  const int mask = GetParam();
  core::EngineConfig cfg = config_for(5, 2);
  cfg.speculation.parallel_refutation = (mask & 1) != 0;
  cfg.speculation.multiple_e_children = (mask & 2) != 0;
  cfg.speculation.early_e_child_choice = (mask & 4) != 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const UniformRandomTree g(3, 5, seed, -40, 40);
    const Value oracle = negmax_search(g, 5).value;
    for (int p : {1, 4, 12}) {
      const auto r = parallel_er_sim(g, cfg, p);
      EXPECT_EQ(r.value, oracle) << "mask=" << mask << " seed=" << seed
                                 << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMasks, SpeculationAblation, ::testing::Range(0, 8));

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

TEST(Engine, NoSpeculativePromotionsWhenDisabled) {
  core::EngineConfig cfg = config_for(4, 2);
  cfg.speculation.multiple_e_children = false;
  cfg.speculation.early_e_child_choice = false;
  const UniformRandomTree g(6, 4, 77, -100, 100);
  const auto r = parallel_er_sim(g, cfg, 16);
  EXPECT_EQ(r.engine.promotions_speculative, 0u);
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
