// Table 3: descriptions of the game trees used in the experiments, extended
// with the measured serial-baseline statistics each later figure is
// normalized against.

#include <variant>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv,
                                        {"R1", "R2", "R3", "O1", "O2", "O3"});
  bench::print_header("Table 3: experiment trees and serial baselines");

  TextTable table({"name", "type", "degree", "search depth", "serial depth",
                   "root value", "alpha-beta nodes", "serial ER nodes",
                   "alpha-beta cost", "serial ER cost", "faster serial"});
  for (const auto& name : opt.tree_names) {
    const auto tree = harness::tree_by_name(name, opt.scale);
    const auto serial = harness::run_serial_baselines(tree);
    std::string degree = "varying";
    if (const auto* rt = std::get_if<UniformRandomTree>(&tree.game))
      degree = std::to_string(rt->degree());
    table.add_row({tree.name, tree.is_othello() ? "Othello" : "Random", degree,
                   std::to_string(tree.engine.search_depth) + " ply",
                   std::to_string(tree.engine.serial_depth),
                   std::to_string(serial.value),
                   std::to_string(serial.alpha_beta.nodes_generated()),
                   std::to_string(serial.er.nodes_generated()),
                   std::to_string(serial.alpha_beta_cost),
                   std::to_string(serial.er_cost),
                   serial.er_cost < serial.alpha_beta_cost ? "ER" : "alpha-beta"});
  }
  table.print();
  // Serial baselines only: nothing runs on an executor here, so --trace
  // has nothing to record (write_observability says so).
  bench::write_observability(opt, /*trace=*/nullptr, "table3_trees");
  return 0;
}
