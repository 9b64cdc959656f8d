// Minimal-tree explorer (paper §2.2, Figure 3): classifies the critical
// nodes of a complete d-ary tree, verifies the Knuth-Moore leaf-count
// formula, and shows that best-first alpha-beta visits exactly the minimal
// tree while ER's mandatory work (the elder grandchildren) is a superset.
//
//   tree_explorer [--degree 3] [--height 4]

#include <cstdio>
#include <vector>

#include "gametree/explicit_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"
#include "search/minimal_tree.hpp"
#include "search/negmax.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ers;
  const CliArgs args(argc, argv);
  args.reject_unknown({"degree", "height"});
  const int degree = static_cast<int>(args.get_int("degree", 3));
  const int height = static_cast<int>(args.get_int("height", 4));

  std::uint64_t leaves = 1;
  for (int i = 0; i < height; ++i) leaves *= static_cast<std::uint64_t>(degree);
  std::printf("Complete %d-ary tree of height %d: %llu leaves\n\n", degree,
              height, static_cast<unsigned long long>(leaves));

  // A uniform-value tree is weakly best-first ordered, so alpha-beta visits
  // exactly the minimal tree on it.
  const std::vector<Value> values(leaves, 0);
  const auto tree = ExplicitTree::complete(degree, height, values);

  const auto deep_types =
      classify_critical_nodes(tree, MinimalTreeKind::kWithDeepCutoffs);
  const auto shallow_types =
      classify_critical_nodes(tree, MinimalTreeKind::kShallowOnly);

  std::uint64_t counts_deep[4] = {0, 0, 0, 0};
  std::uint64_t counts_shallow[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < tree.size(); ++i) {
    ++counts_deep[static_cast<int>(deep_types[i])];
    ++counts_shallow[static_cast<int>(shallow_types[i])];
  }

  TextTable table({"classification", "type 1", "type 2", "type 3",
                   "critical leaves", "formula"});
  table.add_row({"with deep cutoffs", std::to_string(counts_deep[1]),
                 std::to_string(counts_deep[2]), std::to_string(counts_deep[3]),
                 std::to_string(
                     count_critical_leaves(tree, MinimalTreeKind::kWithDeepCutoffs)),
                 std::to_string(minimal_leaf_count(degree, height))});
  table.add_row(
      {"shallow only (MWF)", std::to_string(counts_shallow[1]),
       std::to_string(counts_shallow[2]), std::to_string(counts_shallow[3]),
       std::to_string(count_critical_leaves(tree, MinimalTreeKind::kShallowOnly)),
       "-"});
  table.print();

  std::printf(
      "\nNote: the paper prints the closed form as d^(h/2 up) + d^(h/2 down) + 1;\n"
      "the Knuth-Moore count (verified above by enumeration) has -1.\n\n");

  const auto nm = negmax_search(tree, height);
  const auto ab = alpha_beta_search(tree, height);
  const auto er = er_serial_search(tree, height);
  TextTable visits({"algorithm", "leaves visited", "share of full tree"});
  auto share = [&](std::uint64_t n) {
    return TextTable::num(static_cast<double>(n) / static_cast<double>(leaves), 3);
  };
  visits.add_row({"negmax (full tree)", std::to_string(nm.stats.leaves_evaluated),
                  share(nm.stats.leaves_evaluated)});
  visits.add_row({"alpha-beta (best-first => minimal tree)",
                  std::to_string(ab.stats.leaves_evaluated),
                  share(ab.stats.leaves_evaluated)});
  visits.add_row({"serial ER (mandatory work superset)",
                  std::to_string(er.stats.leaves_evaluated),
                  share(er.stats.leaves_evaluated)});
  visits.print();
  return 0;
}
