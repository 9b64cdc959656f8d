// Speculative overhead of the paper's ranking of speculative work (§6:
// fewest e-children first, ties to shallower nodes), which §8 calls "a
// rather naive ordering".  The engine keeps only this rank; the
// alternatives measured against it are in EXPERIMENTS.md, "Speculation
// ranking".
//
// Per (tree, procs) row:
//   * nodes / node_ratio — total nodes generated, and the ratio to the
//     serial ER node count for the same tree (the paper's search-overhead
//     measure; 1.0 = no duplicated work)
//   * waste_share        — wasted units (bound-change + sibling-resolution
//     kills; dead drops carry no units) over all units processed
//   * speedup            — serial best cost over simulated makespan
// Correctness bar on every run: root value equals serial alpha-beta.
//
// Emits BENCH_spec_policy.json (one flat object per row).  The CI bench
// guard diffs node_ratio and waste_share per (tree, policy, procs) group,
// direction max — smaller is better for both — so every row carries
// "policy":"paper".

#include <cstdint>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/parallel_er.hpp"

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt =
      bench::parse_options(argc, argv, {"O1", "O2", "O3", "R1", "R3"});
  bench::print_header(
      "Speculative overhead of the paper's ranking (§6, §8; DESIGN.md §17)");

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  TextTable table({"tree", "procs", "nodes", "node ratio", "waste share",
                   "speedup", "value"});
  std::vector<std::string> json;
  for (const auto& name : opt.tree_names) {
    const auto tree = harness::tree_by_name(name, opt.scale);
    const auto serial = harness::run_serial_baselines(tree);
    const auto er_nodes = static_cast<double>(harness::serial_er_nodes(serial));
    for (const int p : {8, 16}) {
      if (trace != nullptr) trace->clear();  // keep the last point only
      const auto [value, engine_stats, metrics, waste] = std::visit(
          [&](const auto& game) {
            auto r = parallel_er_sim(game, tree.engine, p, {}, trace);
            return std::tuple{r.value, r.engine, r.metrics, r.waste};
          },
          tree.game);
      ERS_CHECK(value == serial.value &&
                "parallel ER disagrees with serial alpha-beta");
      const auto nodes = engine_stats.search.nodes_generated();
      const double node_ratio =
          er_nodes == 0.0 ? 0.0 : static_cast<double>(nodes) / er_nodes;
      const double waste_share =
          engine_stats.units_processed == 0
              ? 0.0
              : static_cast<double>(waste.total_units()) /
                    static_cast<double>(engine_stats.units_processed);
      const double speedup = static_cast<double>(serial.best_cost()) /
                             static_cast<double>(metrics.makespan);
      table.add_row({tree.name, std::to_string(p), std::to_string(nodes),
                     TextTable::num(node_ratio, 3),
                     TextTable::num(waste_share, 3),
                     TextTable::num(speedup, 2), std::to_string(value)});
      json.push_back(bench::JsonObject()
                         .field("tree", tree.name)
                         .field("policy", "paper")
                         .field("procs", p)
                         .field("nodes", nodes)
                         .field("node_ratio", node_ratio)
                         .field("waste_share", waste_share)
                         .field("spec_promotions",
                                engine_stats.promotions_speculative)
                         .field("speedup", speedup)
                         .field("value", static_cast<int>(value))
                         .str());
    }
  }
  table.print();
  // One deterministic run per row (single-driver simulator): reps would
  // repeat identical numbers, so the stamp is a literal 1.
  bench::write_bench_json("spec_policy", 1, json, opt.json_out);
  bench::write_observability(opt, trace, "spec_policy");
  return 0;
}
