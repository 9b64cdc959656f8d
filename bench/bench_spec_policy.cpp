// Global ranking of speculative work (paper §8, future work): "Currently,
// e-nodes are ranked on the speculative queue according to depth; a rather
// naive ordering.  In order to reduce speculative loss and improve
// efficiency a better mechanism for globally ranking speculative work must
// be found."  This bench compares the paper's ranking against a
// bound-driven ranking and a FIFO control, and measures the paper's ranking
// again with the shared move-ordering tables attached (DESIGN.md §17).
//
// Per (tree, policy, procs) row:
//   * nodes / node_ratio — total nodes generated, and the ratio to the
//     serial ER node count for the same tree (the paper's search-overhead
//     measure; 1.0 = no duplicated work)
//   * waste_share        — speculative waste units (bound-change +
//     sibling-resolution cancellations) over all units processed
//   * speedup            — serial best cost over simulated makespan
// Correctness bar on every run: root value equals serial alpha-beta.
//
// Emits BENCH_spec_policy.json (one flat object per row; the CI bench
// guard diffs node_ratio and waste_share per (tree, policy, procs) group,
// direction max — smaller is better for both).

#include <cstdint>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/parallel_er.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/ordering.hpp"

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt =
      bench::parse_options(argc, argv, {"O1", "O2", "O3", "R1", "R3"});
  bench::print_header(
      "Speculation ranking policies (§8 future work, DESIGN.md §17)");

  // The last row is the paper's ranking plus the shared ordering
  // intelligence — history/killer tables AND the shared transposition
  // table whose stored best-move fingerprints drive TT-move-first child
  // sorting (the hint path is dead without a table).
  const struct {
    core::SpecRankPolicy policy;
    bool ordering_tables;
    const char* name;
  } kPolicies[] = {
      {core::SpecRankPolicy::kFewestEChildren, false, "paper"},
      {core::SpecRankPolicy::kBestBound, false, "best-bound"},
      {core::SpecRankPolicy::kFifo, false, "fifo"},
      {core::SpecRankPolicy::kFewestEChildren, true, "paper+order"},
  };

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "spec_policy");
  TextTable table({"tree", "procs", "policy", "nodes", "node ratio",
                   "waste share", "speedup", "value"});
  std::vector<std::string> json;
  for (const auto& name : opt.tree_names) {
    const auto tree = harness::tree_by_name(name, opt.scale);
    const auto serial = harness::run_serial_baselines(tree);
    const auto er_nodes = static_cast<double>(harness::serial_er_nodes(serial));
    for (const int p : {8, 16}) {
      for (const auto& pc : kPolicies) {
        auto cfg = tree.engine;
        cfg.spec_rank = pc.policy;
        // Fresh tables per run: the single-driver simulator trains them
        // deterministically, so rows are reproducible bit-for-bit.
        OrderingTables tables;
        ConcurrentTranspositionTable shared_tt(18);
        if (pc.ordering_tables) {
          cfg.order_tables = &tables;
          cfg.shared_table = &shared_tt;
        }
        if (trace != nullptr) trace->clear();  // keep the last point only
        const auto [value, engine_stats, metrics, waste] = std::visit(
            [&](const auto& game) {
              auto r = parallel_er_sim(game, cfg, p, {}, trace);
              return std::tuple{r.value, r.engine, r.metrics, r.waste};
            },
            tree.game);
        ERS_CHECK(value == serial.value &&
                  "speculation policy changed the search result");
        reg.set("tree", tree.name);
        reg.set("policy", pc.name);
        obs::register_sim_metrics(reg, metrics);
        obs::register_engine_stats(reg, engine_stats);
        obs::register_engine_waste_stats(reg, waste);
        const auto nodes = engine_stats.search.nodes_generated();
        const double node_ratio =
            er_nodes == 0.0 ? 0.0 : static_cast<double>(nodes) / er_nodes;
        const std::uint64_t spec_waste =
            waste.cause_units(core::WasteCause::kBoundChange) +
            waste.cause_units(core::WasteCause::kSiblingResolution);
        const double waste_share =
            engine_stats.units_processed == 0
                ? 0.0
                : static_cast<double>(spec_waste) /
                      static_cast<double>(engine_stats.units_processed);
        const double speedup = static_cast<double>(serial.best_cost()) /
                               static_cast<double>(metrics.makespan);
        table.add_row({tree.name, std::to_string(p), pc.name,
                       std::to_string(nodes), TextTable::num(node_ratio, 3),
                       TextTable::num(waste_share, 3),
                       TextTable::num(speedup, 2), std::to_string(value)});
        json.push_back(bench::JsonObject()
                           .field("tree", tree.name)
                           .field("policy", pc.name)
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
  }
  table.print();
  // One deterministic run per row (single-driver simulator): reps would
  // repeat identical numbers, so the stamp is a literal 1.
  bench::write_bench_json("spec_policy", 1, json, opt.json_out);
  bench::write_observability(opt, trace, reg, "spec_policy");
  return 0;
}
