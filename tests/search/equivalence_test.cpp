// Cross-algorithm equivalence property tests (DESIGN.md §6.2): every serial
// algorithm must compute the same root value as negmax on the same tree.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "gametree/explicit_tree.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/aspiration.hpp"
#include "search/er_serial.hpp"
#include "search/negascout.hpp"
#include "search/negmax.hpp"

namespace ers {
namespace {

struct TreeShape {
  int degree;
  int height;
  Value value_range;  ///< leaves uniform in [-value_range, value_range]
};

class SerialEquivalence
    : public ::testing::TestWithParam<std::tuple<TreeShape, std::uint64_t>> {};

TEST_P(SerialEquivalence, AllAlgorithmsAgreeWithNegmax) {
  const auto& [shape, seed] = GetParam();
  const UniformRandomTree g(shape.degree, shape.height, seed,
                            -shape.value_range, shape.value_range);
  const int d = shape.height;

  const Value oracle = negmax_search(g, d).value;
  EXPECT_EQ(alpha_beta_search(g, d).value, oracle);
  EXPECT_EQ(alpha_beta_shallow_search(g, d).value, oracle);
  EXPECT_EQ(er_serial_search(g, d).value, oracle);
  EXPECT_EQ(negascout_search(g, d).value, oracle);
  EXPECT_EQ(aspiration_search(g, d, 0, 25).value, oracle);

  // Materialized copy agrees with the implicit tree.
  const ExplicitTree t = materialize(g, d);
  EXPECT_EQ(t.negmax_value(), oracle);
  EXPECT_EQ(er_serial_search(t, d).value, oracle);
}

std::string shape_name(
    const ::testing::TestParamInfo<SerialEquivalence::ParamType>& info) {
  const auto& [shape, seed] = info.param;
  // append, not operator+: g++ 12 -O3 flags "d" + std::to_string(...) with a
  // false -Wrestrict.
  std::string name("d");
  name.append(std::to_string(shape.degree))
      .append("h")
      .append(std::to_string(shape.height))
      .append("r")
      .append(std::to_string(shape.value_range))
      .append("s")
      .append(std::to_string(seed));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SerialEquivalence,
    ::testing::Combine(::testing::Values(TreeShape{1, 6, 50},   // unary chain
                                         TreeShape{2, 6, 50},   // deep binary
                                         TreeShape{3, 4, 50},
                                         TreeShape{4, 3, 50},
                                         TreeShape{5, 3, 3},    // heavy ties
                                         TreeShape{8, 2, 1000},
                                         TreeShape{2, 1, 0},    // all equal
                                         TreeShape{6, 3, 2}),
                       ::testing::Range<std::uint64_t>(0, 12)),
    shape_name);

TEST(SerialEquivalenceOthello, AllAlgorithmsAgreeAtDepth4) {
  for (int idx = 1; idx <= 3; ++idx) {
    const othello::OthelloGame g(othello::paper_position(idx));
    const Value oracle = negmax_search(g, 3).value;
    EXPECT_EQ(alpha_beta_search(g, 3).value, oracle) << "O" << idx;
    EXPECT_EQ(alpha_beta_shallow_search(g, 3).value, oracle) << "O" << idx;
    EXPECT_EQ(er_serial_search(g, 3).value, oracle) << "O" << idx;
    OrderingPolicy sorted{.sort_by_static_value = true, .max_sort_ply = 5};
    EXPECT_EQ(alpha_beta_search(g, 3, sorted).value, oracle) << "O" << idx;
    EXPECT_EQ(er_serial_search(g, 3, sorted).value, oracle) << "O" << idx;
  }
}

TEST(SerialEquivalenceOthello, OrderedSearchExpandsFewerNodes) {
  const othello::OthelloGame g(othello::paper_position(1));
  OrderingPolicy sorted{.sort_by_static_value = true, .max_sort_ply = 5};
  const auto plain = alpha_beta_search(g, 5);
  const auto ordered = alpha_beta_search(g, 5, sorted);
  EXPECT_EQ(plain.value, ordered.value);
  EXPECT_LT(ordered.stats.leaves_evaluated, plain.stats.leaves_evaluated)
      << "static-value ordering should prune more on Othello trees";
}

}  // namespace
}  // namespace ers
