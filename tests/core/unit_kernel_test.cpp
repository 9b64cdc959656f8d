// The unit kernel (DESIGN.md §18): under the default alpha-beta kernel,
// parallel ER — on real threads and on the simulator — must return serial
// alpha-beta's root value and a best move that achieves it, at every serial
// depth.  A seeded differential test then draws random games and configs
// and checks each against alpha-beta.
// Own binary so the thread-runtime sweeps ride the tsan lane.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "connect4/connect4.hpp"
#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/ordering.hpp"
#include "util/rng.hpp"

namespace ers {
namespace {

/// Fails unless `move`, when present, is a root child whose alpha-beta
/// value (searched from ply 1) negates to `root_value`.
template <Game G>
void check_best_move(const G& g, const core::EngineConfig& cfg,
                     const std::optional<typename G::Position>& move,
                     Value root_value, const std::string& where) {
  if (!move) return;
  std::vector<typename G::Position> kids;
  g.generate_children(g.root(), kids);
  bool found = false;
  for (const auto& k : kids) found = found || k == *move;
  ASSERT_TRUE(found) << where << ": best move is no root child";
  AlphaBetaSearcher<G> ab(g, cfg.search_depth, cfg.ordering);
  EXPECT_EQ(negate(ab.run_from(*move, 1).value), root_value)
      << where << ": best move does not achieve the root value";
}

/// Every serial depth × {threads {1,2,4}, simulator}: root value equals
/// serial alpha-beta's.
template <Game G>
void sweep(const G& g, int depth, OrderingPolicy ordering,
           const std::string& name) {
  const Value oracle = alpha_beta_search(g, depth, ordering).value;
  for (int serial = 0; serial <= depth; ++serial) {
    core::EngineConfig cfg;
    cfg.search_depth = depth;
    cfg.serial_depth = serial;
    cfg.ordering = ordering;
    ASSERT_EQ(cfg.unit_kernel, core::UnitKernel::kAlphaBeta);
    const std::string at = name + " serial=" + std::to_string(serial);
    for (int threads : {1, 2, 4}) {
      const auto r = parallel_er_threads(g, cfg, threads);
      const std::string where = at + " threads=" + std::to_string(threads);
      EXPECT_EQ(r.value, oracle) << where;
      check_best_move(g, cfg, r.best_move, r.value, where);
    }
    const auto s = parallel_er_sim(g, cfg, 4);
    EXPECT_EQ(s.value, oracle) << at << " sim";
    check_best_move(g, cfg, s.best_move, s.value, at + " sim");
  }
}

TEST(UnitKernelDifferential, RandomTreesMatchSerialAlphaBeta) {
  for (int b = 2; b <= 8; ++b) {
    const int depth = b <= 4 ? 5 : 4;
    for (std::uint64_t seed : {3u, 17u}) {
      const UniformRandomTree g(b, depth, seed * 100 + b, -500, 500);
      sweep(g, depth, OrderingPolicy{},
            "random b=" + std::to_string(b) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(UnitKernelDifferential, OthelloMatchesSerialAlphaBeta) {
  OrderingPolicy paper_sort;
  paper_sort.sort_by_static_value = true;
  paper_sort.max_sort_ply = 6;
  for (int idx = 1; idx <= 3; ++idx) {
    const othello::OthelloGame g(othello::paper_position(idx));
    sweep(g, 4, paper_sort, std::string("O").append(std::to_string(idx)));
  }
}

TEST(UnitKernelDifferential, ConnectFourMatchesSerialAlphaBeta) {
  sweep(connect4::Connect4{}, 5, OrderingPolicy{}, "connect4");
}

// --- seeded differential test across random configs -----------------------

/// One drawn case: a game and a full engine/runtime config.  describe()
/// prints every draw, so a failing case can be rebuilt by hand.
struct DiffCase {
  int index = 0;
  std::string game;
  int depth = 0;
  int threads = 1;
  int serial_depth = 0;
  core::UnitKernel kernel = core::UnitKernel::kAlphaBeta;
  bool sort = false;

  [[nodiscard]] std::string describe() const {
    return "case " + std::to_string(index) + ": " + game +
           " depth=" + std::to_string(depth) +
           " threads=" + std::to_string(threads) +
           " serial_depth=" + std::to_string(serial_depth) + " kernel=" +
           (kernel == core::UnitKernel::kAlphaBeta ? "alpha-beta" : "serial-er") +
           " sort=" + std::to_string(sort);
  }
};

template <Game G>
void run_diff_case(const G& g, const DiffCase& c) {
  core::EngineConfig cfg;
  cfg.search_depth = c.depth;
  cfg.serial_depth = c.serial_depth;
  cfg.unit_kernel = c.kernel;
  cfg.ordering.sort_by_static_value = c.sort;
  const Value oracle = alpha_beta_search(g, c.depth, cfg.ordering).value;
  const auto r = parallel_er_threads(g, cfg, c.threads);
  const std::string where = c.describe();
  EXPECT_EQ(r.value, oracle) << where;
  check_best_move(g, cfg, r.best_move, r.value, where);
}

TEST(UnitKernelDifferential, SeededRandomConfigsMatchAlphaBeta) {
  // Every draw comes from one fixed seed, so the case list is the same on
  // every run; the thread schedule is what varies between runs (the tsan
  // lane repeats this binary).
  Xoshiro256StarStar rng(0x5eed'd1ffull);
  constexpr int kCases = 60;
  constexpr int kThreads[] = {1, 2, 4};
  for (int i = 0; i < kCases; ++i) {
    DiffCase c;
    c.index = i;
    const std::uint64_t kind = rng.below(4);  // 0-1 random, 2 Othello, 3 C4
    int branching = 0;
    std::uint64_t tree_seed = 0;
    Value range = 0;
    int othello_plies = 0;
    if (kind <= 1) {
      branching = static_cast<int>(rng.between(2, 8));
      int max_depth = 1;
      for (std::int64_t leaves = branching; leaves * branching <= 40'000;
           leaves *= branching)
        ++max_depth;
      c.depth = static_cast<int>(rng.between(2, max_depth));
      tree_seed = rng();
      constexpr Value kRanges[] = {5, 100, 10'000};
      range = kRanges[rng.below(3)];
      c.game = "random b=" + std::to_string(branching) +
               " seed=" + std::to_string(tree_seed) +
               " range=" + std::to_string(range);
    } else if (kind == 2) {
      othello_plies = static_cast<int>(rng.between(4, 30));
      tree_seed = rng();
      c.depth = static_cast<int>(rng.between(2, 4));
      c.game = "othello selfplay plies=" + std::to_string(othello_plies) +
               " seed=" + std::to_string(tree_seed);
    } else {
      c.depth = static_cast<int>(rng.between(2, 6));
      c.game = "connect4 root";
    }
    c.threads = kThreads[rng.below(3)];
    c.serial_depth = static_cast<int>(rng.between(0, c.depth));
    c.kernel = rng.below(2) == 0 ? core::UnitKernel::kAlphaBeta
                                 : core::UnitKernel::kSerialEr;
    c.sort = rng.below(2) == 0;
    SCOPED_TRACE(c.describe());
    if (kind <= 1) {
      run_diff_case(UniformRandomTree(branching, c.depth, tree_seed, -range,
                                      range),
                    c);
    } else if (kind == 2) {
      run_diff_case(othello::OthelloGame(
                        othello::selfplay_position(othello_plies, tree_seed)),
                    c);
    } else {
      run_diff_case(connect4::Connect4{}, c);
    }
    if (::testing::Test::HasFailure()) return;  // the first failure is enough
  }
}

}  // namespace
}  // namespace ers
