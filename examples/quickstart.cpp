// Quickstart: search one of the paper's experiment trees with serial
// alpha-beta, serial ER, and parallel ER on 1..16 simulated processors.
//
//   quickstart [--tree R3] [--scale 0] [--threads N]
//
// With --threads N the search additionally runs on N real OS threads to
// demonstrate the shared-memory runtime (the value must match).

#include <cstdio>
#include <variant>

#include "core/parallel_er.hpp"
#include "harness/experiment.hpp"
#include "harness/tree_registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const ers::CliArgs args(argc, argv);
  args.reject_unknown({"tree", "scale", "threads"});
  const std::string name = args.get("tree", "R3");
  const int scale = static_cast<int>(args.get_int("scale", 0));

  const auto tree = ers::harness::tree_by_name(name, scale);
  std::printf("Tree %s: search depth %d, serial depth %d, %s\n\n", name.c_str(),
              tree.engine.search_depth, tree.engine.serial_depth,
              tree.is_othello() ? "Othello (sorted <= ply 5)"
                                : "random (unsorted)");

  const auto serial = ers::harness::run_serial_baselines(tree);
  std::printf("Serial baselines (root value %d):\n", serial.value);
  std::printf("  alpha-beta : %llu nodes, cost %llu\n",
              static_cast<unsigned long long>(serial.alpha_beta.nodes_generated()),
              static_cast<unsigned long long>(serial.alpha_beta_cost));
  std::printf("  serial ER  : %llu nodes, cost %llu\n\n",
              static_cast<unsigned long long>(serial.er.nodes_generated()),
              static_cast<unsigned long long>(serial.er_cost));

  ers::TextTable table({"procs", "speedup", "efficiency", "nodes", "makespan",
                        "idle%", "spec promotions"});
  for (const int p : ers::harness::figure_processor_counts()) {
    const auto pt = ers::harness::run_parallel_point(tree, p, serial);
    const double idle_pct =
        100.0 * static_cast<double>(pt.metrics.idle_time) /
        (static_cast<double>(pt.metrics.makespan) * p);
    table.add_row({std::to_string(p), ers::TextTable::num(pt.speedup, 2),
                   ers::TextTable::num(pt.efficiency, 2),
                   std::to_string(pt.nodes_generated),
                   std::to_string(pt.makespan), ers::TextTable::num(idle_pct, 1),
                   std::to_string(pt.engine.promotions_speculative)});
  }
  table.print();

  if (args.has("threads")) {
    const int threads = static_cast<int>(args.get_int("threads", 2));
    std::visit(
        [&](const auto& game) {
          const auto r = ers::parallel_er_threads(game, tree.engine, threads);
          std::printf("\nThread runtime (%d threads): value %d (%s)\n", threads,
                      r.value, r.value == serial.value ? "matches" : "MISMATCH");
        },
        tree.game);
  }
  return 0;
}
