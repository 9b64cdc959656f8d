#include "harness/tree_registry.hpp"

#include <algorithm>

#include "othello/positions.hpp"
#include "util/check.hpp"

namespace ers::harness {
namespace {

core::EngineConfig engine_config(int depth, int serial, bool sort) {
  core::EngineConfig cfg;
  cfg.search_depth = depth;
  cfg.serial_depth = serial;
  cfg.ordering.sort_by_static_value = sort;
  cfg.ordering.max_sort_ply = 6;  // paper §7: sorted down to ply 5 inclusive
  // The paper resolves every cutover node with serial ER (Figure 8); the
  // simulated Figures 10–13 and their node counts depend on it.
  cfg.unit_kernel = core::UnitKernel::kSerialEr;
  return cfg;
}

ExperimentTree random_tree(std::string name, int degree, int depth, int serial,
                           std::uint64_t seed) {
  return ExperimentTree{std::move(name),
                        UniformRandomTree(degree, depth, seed, -10'000, 10'000),
                        engine_config(depth, serial, /*sort=*/false)};
}

ExperimentTree othello_tree(std::string name, int index, int depth, int serial) {
  return ExperimentTree{
      std::move(name),
      othello::OthelloGame(othello::paper_position(index)),
      engine_config(depth, serial, /*sort=*/true)};
}

}  // namespace

std::vector<ExperimentTree> table3_trees(int scale_depth) {
  scale_depth = std::max(0, scale_depth);  // negative scales would grow trees
  auto scaled = [&](int depth) { return std::max(1, depth - scale_depth); };
  auto scaled_serial = [&](int depth, int serial) {
    return std::clamp(serial - scale_depth, 0, scaled(depth));
  };
  std::vector<ExperimentTree> trees;
  trees.push_back(random_tree("R1", 4, scaled(10), scaled_serial(10, 7), 101));
  trees.push_back(random_tree("R2", 4, scaled(11), scaled_serial(11, 7), 202));
  trees.push_back(random_tree("R3", 8, scaled(7), scaled_serial(7, 5), 303));
  trees.push_back(othello_tree("O1", 1, scaled(7), scaled_serial(7, 5)));
  trees.push_back(othello_tree("O2", 2, scaled(7), scaled_serial(7, 5)));
  trees.push_back(othello_tree("O3", 3, scaled(7), scaled_serial(7, 5)));
  return trees;
}

ExperimentTree tree_by_name(const std::string& name, int scale_depth) {
  for (auto& t : table3_trees(scale_depth))
    if (t.name == name) return t;
  ERS_CHECK(false && "unknown experiment tree name");
  __builtin_unreachable();
}

std::vector<int> figure_processor_counts() { return {1, 2, 4, 8, 12, 16}; }

}  // namespace ers::harness
