// The experiment harness: Table 3 registry contents and the invariants of
// the figure drivers (exact values, sane efficiency, determinism).

#include <gtest/gtest.h>

#include <variant>

#include "harness/experiment.hpp"
#include "harness/tree_registry.hpp"
#include "search/negmax.hpp"

namespace ers::harness {
namespace {

TEST(TreeRegistry, ContainsTheSixTable3Trees) {
  const auto trees = table3_trees();
  ASSERT_EQ(trees.size(), 6u);
  const char* names[] = {"R1", "R2", "R3", "O1", "O2", "O3"};
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(trees[i].name, names[i]);
}

TEST(TreeRegistry, Table3Configuration) {
  const auto r1 = tree_by_name("R1");
  EXPECT_EQ(r1.engine.search_depth, 10);
  EXPECT_EQ(r1.engine.serial_depth, 7);
  EXPECT_FALSE(r1.engine.ordering.sort_by_static_value);
  const auto r3 = tree_by_name("R3");
  EXPECT_EQ(r3.engine.search_depth, 7);
  EXPECT_EQ(r3.engine.serial_depth, 5);
  const auto o1 = tree_by_name("O1");
  EXPECT_TRUE(o1.is_othello());
  EXPECT_EQ(o1.engine.search_depth, 7);
  EXPECT_EQ(o1.engine.serial_depth, 5);
  EXPECT_TRUE(o1.engine.ordering.sort_by_static_value);
}

TEST(TreeRegistry, ScaleReducesDepthsConsistently) {
  const auto r1 = tree_by_name("R1", 3);
  EXPECT_EQ(r1.engine.search_depth, 7);
  EXPECT_EQ(r1.engine.serial_depth, 4);
  // Scaling never produces invalid configurations.
  for (int scale = 0; scale < 12; ++scale) {
    for (const auto& t : table3_trees(scale)) {
      EXPECT_GE(t.engine.search_depth, 1) << t.name << " scale " << scale;
      EXPECT_GE(t.engine.serial_depth, 0);
      EXPECT_LE(t.engine.serial_depth, t.engine.search_depth);
    }
  }
}

TEST(TreeRegistry, EveryTreePinsTheSerialErUnitKernel) {
  // The simulated Figures 10–13 reproduce the paper's serial-ER units.
  for (int scale = 0; scale < 4; ++scale)
    for (const auto& t : table3_trees(scale))
      EXPECT_EQ(t.engine.unit_kernel, core::UnitKernel::kSerialEr)
          << t.name << " scale " << scale;
}

TEST(TreeRegistry, RandomTreesUseDistinctSeeds) {
  const auto r1 = std::get<UniformRandomTree>(tree_by_name("R1").game);
  const auto r2 = std::get<UniformRandomTree>(tree_by_name("R2").game);
  EXPECT_NE(r1.seed(), r2.seed());
}

TEST(Experiment, SerialBaselineValuesAreExact) {
  const auto tree = tree_by_name("R3", /*scale=*/3);
  const auto serial = run_serial_baselines(tree);
  const Value oracle = std::visit(
      [&](const auto& g) { return negmax_search(g, tree.engine.search_depth).value; },
      tree.game);
  EXPECT_EQ(serial.value, oracle);
  EXPECT_GT(serial.alpha_beta_cost, 0u);
  EXPECT_GT(serial.er_cost, 0u);
}

TEST(Experiment, AlphaBetaEfficiencyReferenceIsAtMostOne) {
  for (const auto& t : table3_trees(/*scale=*/3)) {
    const auto serial = run_serial_baselines(t);
    EXPECT_LE(serial.alpha_beta_efficiency(), 1.0) << t.name;
    EXPECT_GT(serial.alpha_beta_efficiency(), 0.0) << t.name;
  }
}

TEST(Experiment, ParallelPointsAreExactAndConsistent) {
  const auto tree = tree_by_name("O1", /*scale=*/2);
  const auto serial = run_serial_baselines(tree);
  for (int p : {1, 4, 16}) {
    const auto pt = run_parallel_point(tree, p, serial);
    EXPECT_EQ(pt.value, serial.value) << "p=" << p;
    EXPECT_GT(pt.speedup, 0.0);
    EXPECT_LT(pt.efficiency, 1.5) << "anomalous super-linear efficiency";
    EXPECT_EQ(pt.processors, p);
    EXPECT_EQ(pt.nodes_generated, pt.engine.search.nodes_generated());
  }
}

TEST(Experiment, Deterministic) {
  const auto tree = tree_by_name("R3", /*scale=*/3);
  const auto serial = run_serial_baselines(tree);
  const auto a = run_parallel_point(tree, 8, serial);
  const auto b = run_parallel_point(tree, 8, serial);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.nodes_generated, b.nodes_generated);
}

TEST(Experiment, SpeculationOverrideRespected) {
  const auto tree = tree_by_name("R3", /*scale=*/2);
  const auto serial = run_serial_baselines(tree);
  core::SpeculationConfig off;
  off.parallel_refutation = false;
  off.multiple_e_children = false;
  off.early_e_child_choice = false;
  const auto pt = run_parallel_point(tree, 16, serial, {}, &off);
  EXPECT_EQ(pt.value, serial.value);
  EXPECT_EQ(pt.engine.promotions_speculative, 0u);
}

TEST(Experiment, FigureProcessorCountsMatchPaperRange) {
  const auto counts = figure_processor_counts();
  EXPECT_EQ(counts.front(), 1);
  EXPECT_EQ(counts.back(), 16);
}

}  // namespace
}  // namespace ers::harness
