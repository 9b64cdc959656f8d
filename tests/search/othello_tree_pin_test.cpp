// Search-tree pin for the paper's Othello trees (Table 3: O1–O3, depth 7,
// children statically sorted down to ply 5).  The serial searchers visit
// exactly the nodes the Othello kernels (move generation, flips, static
// evaluation) lead them to, so a kernel change that is not bit-exact moves
// at least one of these numbers.  The expected values predate the
// table-driven kernels; they must not be edited to follow a kernel change.

#include <gtest/gtest.h>

#include <cstdint>

#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"

namespace ers {
namespace {

struct TreePin {
  int position;
  Value value;
  std::uint64_t ab_nodes;
  std::uint64_t ab_sort_evals;
  std::uint64_t er_nodes;
};

constexpr TreePin kPins[] = {
    {1, 374, 22'700, 22'565, 34'572},
    {2, 136, 32'309, 40'841, 60'040},
    {3, 452, 20'197, 30'524, 42'378},
};

constexpr int kDepth = 7;
constexpr OrderingPolicy kPaperSort{.sort_by_static_value = true, .max_sort_ply = 6};

TEST(OthelloTreePin, AlphaBetaDepth7) {
  for (const TreePin& pin : kPins) {
    const othello::OthelloGame g(othello::paper_position(pin.position));
    const SearchResult r = alpha_beta_search(g, kDepth, kPaperSort);
    EXPECT_EQ(r.value, pin.value) << "O" << pin.position;
    EXPECT_EQ(r.stats.nodes_generated(), pin.ab_nodes) << "O" << pin.position;
    EXPECT_EQ(r.stats.sort_evals, pin.ab_sort_evals) << "O" << pin.position;
  }
}

TEST(OthelloTreePin, ErSerialDepth7) {
  for (const TreePin& pin : kPins) {
    const othello::OthelloGame g(othello::paper_position(pin.position));
    const SearchResult r = er_serial_search(g, kDepth, kPaperSort);
    EXPECT_EQ(r.value, pin.value) << "O" << pin.position;
    EXPECT_EQ(r.stats.nodes_generated(), pin.er_nodes) << "O" << pin.position;
  }
}

}  // namespace
}  // namespace ers
