// Fail-hard window semantics, property-tested with random windows: for any
// window (a, b) and true value v,
//     result <= a  implies  v <= a   (fail low)
//     result >= b  implies  v >= b   (fail high)
//     a < result < b  implies  result == v (exact)
// and conversely the result must fail in the direction v actually lies.
// These invariants are what the parallel engine's window_of folding and all
// baselines rely on.

#include <gtest/gtest.h>

#include <vector>

#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"
#include "search/negmax.hpp"
#include "search/ttable.hpp"
#include "util/rng.hpp"

namespace ers {
namespace {

void check_fail_hard(Value result, Value truth, Window w, const char* algo,
                     std::uint64_t seed) {
  if (result <= w.alpha) {
    EXPECT_LE(truth, w.alpha) << algo << " seed=" << seed;
  } else if (result >= w.beta) {
    EXPECT_GE(truth, w.beta) << algo << " seed=" << seed;
  } else {
    EXPECT_EQ(result, truth) << algo << " seed=" << seed;
  }
  // Converse direction: an in-window truth must be found exactly.
  if (truth > w.alpha && truth < w.beta) {
    EXPECT_EQ(result, truth) << algo << " (converse) seed=" << seed;
  }
}

class WindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowProperty, AlphaBetaAndErRespectArbitraryWindows) {
  const std::uint64_t seed = GetParam();
  const UniformRandomTree g(3, 5, seed, -60, 60);
  const Value truth = negmax_search(g, 5).value;

  Xoshiro256StarStar rng(seed * 7919 + 13);
  for (int trial = 0; trial < 12; ++trial) {
    const Value a = static_cast<Value>(rng.between(-80, 70));
    const Value b = static_cast<Value>(rng.between(a + 1, 81));
    const Window w{a, b};

    AlphaBetaSearcher<UniformRandomTree> ab(g, 5);
    check_fail_hard(ab.run(w).value, truth, w, "alpha-beta", seed);

    ErSerialSearcher<UniformRandomTree> er(g, 5);
    check_fail_hard(er.run_from(g.root(), 0, w).value, truth, w, "serial ER",
                    seed);

    TranspositionTable table(10);
    auto hasher = [](const UniformRandomTree::Position& p) { return p.hash; };
    TtAlphaBetaSearcher<UniformRandomTree, decltype(hasher)> tt(g, 5, hasher,
                                                                &table);
    check_fail_hard(tt.run(w).value, truth, w, "tt-alpha-beta", seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

// The engine's cutover units — run_from (kSerialFull), eval_first_from
// (kSerialEvalFirst), refute_rest_from (kSerialRefuteRest) and refute_from
// (kSerialRefute) — must each be, or compose into, a fail-hard evaluation
// of the node under the given unit kernel.
void check_units_respect_windows(bool alpha_beta_kernel) {
  SCOPED_TRACE(alpha_beta_kernel ? "alpha-beta kernel" : "serial ER");
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const UniformRandomTree g(3, 4, seed, -40, 40);
    const Value truth = negmax_search(g, 4).value;
    Xoshiro256StarStar rng(seed + 555);
    for (int trial = 0; trial < 4; ++trial) {
      const Value a = static_cast<Value>(rng.between(-60, 50));
      const Value b = static_cast<Value>(rng.between(a + 1, 61));
      const Window w{a, b};
      AlphaBetaSearcher<UniformRandomTree> kernel(g, 4);
      auto units = [&] {
        ErSerialSearcher<UniformRandomTree> s(g, 4);
        if (alpha_beta_kernel) s.with_unit_kernel(&kernel);
        return s;
      };

      std::vector<UniformRandomTree::Position> kids;
      const auto part = units().eval_first_from(g.root(), 0, w, kids);
      Value result = part.value;
      if (!part.done)
        result = units().refute_rest_from(g.root(), 0, w, part.value, kids)
                     .value;
      check_fail_hard(result, truth, w, "eval_first+refute_rest", seed);
      check_fail_hard(units().refute_from(g.root(), 0, w).value, truth, w,
                      "refute_from", seed);
      check_fail_hard(units().run_from(g.root(), 0, w).value, truth, w,
                      "run_from", seed);
    }
  }
}

TEST(WindowProperty, ErPartialUnitsRespectWindows) {
  check_units_respect_windows(/*alpha_beta_kernel=*/false);
}

TEST(WindowProperty, AlphaBetaKernelUnitsRespectWindows) {
  check_units_respect_windows(/*alpha_beta_kernel=*/true);
}

}  // namespace
}  // namespace ers
