#include "search/minimal_tree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gametree/explicit_tree.hpp"
#include "search/alpha_beta.hpp"

namespace ers {
namespace {

ExplicitTree uniform_tree(int degree, int height, Value leaf_value = 0) {
  std::vector<Value> leaves;
  std::uint64_t n = 1;
  for (int i = 0; i < height; ++i) n *= static_cast<std::uint64_t>(degree);
  leaves.assign(n, leaf_value);
  return ExplicitTree::complete(degree, height, leaves);
}

TEST(MinimalTree, RootIsType1) {
  const auto t = uniform_tree(2, 1);
  const auto types = classify_critical_nodes(t, MinimalTreeKind::kWithDeepCutoffs);
  EXPECT_EQ(types[0], CriticalNodeType::kType1);
}

TEST(MinimalTree, RuleTwoFirstChildType1RestType2) {
  const auto t = uniform_tree(3, 1);
  const auto types = classify_critical_nodes(t, MinimalTreeKind::kWithDeepCutoffs);
  EXPECT_EQ(types[t.child(0, 0)], CriticalNodeType::kType1);
  EXPECT_EQ(types[t.child(0, 1)], CriticalNodeType::kType2);
  EXPECT_EQ(types[t.child(0, 2)], CriticalNodeType::kType2);
}

TEST(MinimalTree, RuleThreeType2FirstChildIsType3) {
  const auto t = uniform_tree(3, 2);
  const auto types = classify_critical_nodes(t, MinimalTreeKind::kWithDeepCutoffs);
  const auto two = t.child(0, 1);
  EXPECT_EQ(types[t.child(two, 0)], CriticalNodeType::kType3);
  EXPECT_EQ(types[t.child(two, 1)], CriticalNodeType::kNotCritical);
  EXPECT_EQ(types[t.child(two, 2)], CriticalNodeType::kNotCritical);
}

TEST(MinimalTree, RuleFourChildrenOfType3AreType2) {
  const auto t = uniform_tree(2, 3);
  const auto types = classify_critical_nodes(t, MinimalTreeKind::kWithDeepCutoffs);
  const auto two = t.child(0, 1);
  const auto three = t.child(two, 0);
  ASSERT_EQ(types[three], CriticalNodeType::kType3);
  EXPECT_EQ(types[t.child(three, 0)], CriticalNodeType::kType2);
  EXPECT_EQ(types[t.child(three, 1)], CriticalNodeType::kType2);
}

TEST(MinimalTree, ShallowClassificationHasNoType3) {
  const auto t = uniform_tree(3, 4);
  const auto types = classify_critical_nodes(t, MinimalTreeKind::kShallowOnly);
  for (const auto ty : types) EXPECT_NE(ty, CriticalNodeType::kType3);
}

TEST(MinimalTree, ShallowMinimalTreeContainsDeepMinimalTree) {
  const auto t = uniform_tree(3, 4);
  const auto deep = classify_critical_nodes(t, MinimalTreeKind::kWithDeepCutoffs);
  const auto shallow = classify_critical_nodes(t, MinimalTreeKind::kShallowOnly);
  for (std::size_t i = 0; i < deep.size(); ++i) {
    if (deep[i] != CriticalNodeType::kNotCritical) {
      EXPECT_NE(shallow[i], CriticalNodeType::kNotCritical) << "node " << i;
    }
  }
}

TEST(MinimalTree, ClosedFormMatchesEnumeration) {
  // The paper prints d^ceil(h/2)+d^floor(h/2)+1; Knuth-Moore's count (and
  // this enumeration) give "-1".
  for (int d = 1; d <= 4; ++d) {
    for (int h = 0; h <= 5; ++h) {
      const auto t = uniform_tree(d, h);
      EXPECT_EQ(count_critical_leaves(t, MinimalTreeKind::kWithDeepCutoffs),
                minimal_leaf_count(d, h))
          << "d=" << d << " h=" << h;
    }
  }
}

TEST(MinimalTree, Figure3Dimensions) {
  // Figure 3's tree is ternary of height 3: minimal leaves = 3^2+3-1 = 11.
  EXPECT_EQ(minimal_leaf_count(3, 3), 11u);
  const auto t = uniform_tree(3, 3);
  EXPECT_EQ(count_critical_leaves(t, MinimalTreeKind::kWithDeepCutoffs), 11u);
}

TEST(MinimalTree, BestFirstAlphaBetaVisitsExactlyMinimalTree) {
  // Knuth-Moore: on a best-first-ordered tree, alpha-beta examines exactly
  // the critical leaves.  A uniform-value tree is (weakly) best-first.
  for (int d = 2; d <= 4; ++d) {
    for (int h = 1; h <= 4; ++h) {
      const auto t = uniform_tree(d, h, /*leaf_value=*/7);
      const auto r = alpha_beta_search(t, h);
      EXPECT_EQ(r.stats.leaves_evaluated, minimal_leaf_count(d, h))
          << "d=" << d << " h=" << h;
    }
  }
}

TEST(MinimalTree, MinimalLeafCountGrowsLikeTwiceSqrtN) {
  // d^ceil(h/2) + d^floor(h/2) - 1 ~ 2 sqrt(d^h) for even h.
  const auto n = minimal_leaf_count(4, 6);
  EXPECT_EQ(n, 64u + 64u - 1u);
}

TEST(MinimalTree, UnaryDegreeEdgeCase) {
  EXPECT_EQ(minimal_leaf_count(1, 5), 1u);
  const auto t = uniform_tree(1, 5);
  EXPECT_EQ(count_critical_leaves(t, MinimalTreeKind::kWithDeepCutoffs), 1u);
}

}  // namespace
}  // namespace ers
