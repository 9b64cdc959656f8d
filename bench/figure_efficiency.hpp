#pragma once
// Shared driver for Figures 10/11 (efficiency of ER vs processor count) and
// Figures 12/13 (nodes generated vs processor count).

#include "baselines/abdada_par.hpp"
#include "common.hpp"
#include "search/alpha_beta.hpp"
#include "util/check.hpp"

namespace ers::bench {

/// ABDADA on the same positions, threads {1, 2, 4, 8} on the real thread
/// runtime: the modern shared-TT rival the efficiency figures are judged
/// against (DESIGN.md §14).  Node counts relative to one-shot serial
/// alpha-beta at the figure's depth are the portable comparison — on the
/// sorted Othello trees ABDADA adds an estimate iteration three plies
/// shallower (and table hits can put it below 1 at one thread), the
/// unsorted random trees run one iteration, and the growth with threads is
/// the duplication the shared tables fail to suppress.  Root values are
/// checked against serial alpha-beta on every run; full sweep data lives in
/// BENCH_abdada.json.
inline void print_abdada_rival(const FigureOptions& opt) {
  std::printf("\nABDADA rival on the same positions (thread runtime):\n");
  TextTable table({"tree", "threads", "abdada nodes", "vs alpha-beta",
                   "deferred", "revisited", "value"});
  for (const auto& name : opt.tree_names) {
    const auto tree = harness::tree_by_name(name, opt.scale);
    std::visit(
        [&](const auto& game) {
          const auto ab = alpha_beta_search(game, tree.engine.search_depth,
                                            tree.engine.ordering);
          for (const int threads : {1, 2, 4, 8}) {
            baselines::AbdadaOptions aopt;
            aopt.threads = threads;
            aopt.ordering = tree.engine.ordering;
            const auto r = baselines::abdada_parallel_search(
                game, tree.engine.search_depth, aopt);
            ERS_CHECK(r.value == ab.value &&
                      "ABDADA diverged from serial alpha-beta");
            table.add_row(
                {tree.name, std::to_string(threads),
                 std::to_string(r.stats.nodes_generated()),
                 TextTable::num(
                     static_cast<double>(r.stats.nodes_generated()) /
                         static_cast<double>(ab.stats.nodes_generated()),
                     2),
                 std::to_string(r.stats.moves_deferred),
                 std::to_string(r.stats.moves_revisited),
                 std::to_string(r.value)});
          }
        },
        tree.game);
  }
  table.print();
}

/// Figures 10/11: one efficiency row per processor count and tree, plus the
/// flat "serial alpha-beta" reference line of the paper's plots (its
/// efficiency relative to the fastest serial algorithm).
inline void print_efficiency_figure(const char* title,
                                    const FigureOptions& opt) {
  print_header(title);
  obs::TraceSession session;
  obs::TraceSession* trace = trace_session_for(opt, session);
  TextTable table({"tree", "procs", "speedup", "efficiency",
                   "serial alpha-beta eff.", "utilization", "idle share",
                   "waste share", "bytes/node"});
  for (const auto& name : opt.tree_names) {
    const TreeSweep s = run_sweep(name, opt.scale, trace);
    for (const auto& p : s.points) {
      const double cap =
          static_cast<double>(p.metrics.makespan) * p.processors;
      const double idle_share =
          static_cast<double>(p.metrics.idle_time) / cap;
      // Waste share (DESIGN.md §16): compute charged to cancelled subtrees
      // over total processor-time.  idle + waste + useful-compute +
      // serialization shares decompose the figure's 1 - efficiency.
      const double waste_share = static_cast<double>(p.waste.total_ns()) / cap;
      // Peak engine storage (hot arena + position arena + cold records)
      // amortized over every node the search generated — the memory-side
      // efficiency of the two-tier layout (DESIGN.md §15).
      const double bytes_per_node =
          p.nodes_generated > 0
              ? static_cast<double>(p.mem.peak_bytes) /
                    static_cast<double>(p.nodes_generated)
              : 0.0;
      table.add_row({s.tree.name, std::to_string(p.processors),
                     TextTable::num(p.speedup, 2),
                     TextTable::num(p.efficiency, 3),
                     TextTable::num(s.serial.alpha_beta_efficiency(), 3),
                     TextTable::num(p.metrics.utilization(), 3),
                     TextTable::num(idle_share, 3),
                     TextTable::num(waste_share, 3),
                     TextTable::num(bytes_per_node, 1)});
    }
  }
  table.print();
  print_abdada_rival(opt);
  write_observability(opt, trace, title);
}

/// Figures 12/13: nodes generated per processor count, with the serial
/// alpha-beta and serial ER node counts as the reference bars.
inline void print_nodes_figure(const char* title, const FigureOptions& opt) {
  print_header(title);
  obs::TraceSession session;
  obs::TraceSession* trace = trace_session_for(opt, session);
  TextTable table({"tree", "procs", "nodes generated", "vs serial ER",
                   "serial ER nodes", "alpha-beta nodes"});
  for (const auto& name : opt.tree_names) {
    const TreeSweep s = run_sweep(name, opt.scale, trace);
    const auto er_nodes = s.serial.er.nodes_generated();
    for (const auto& p : s.points) {
      table.add_row({s.tree.name, std::to_string(p.processors),
                     std::to_string(p.nodes_generated),
                     TextTable::num(static_cast<double>(p.nodes_generated) /
                                        static_cast<double>(er_nodes),
                                    2),
                     std::to_string(er_nodes),
                     std::to_string(s.serial.alpha_beta.nodes_generated())});
    }
  }
  table.print();
  write_observability(opt, trace, title);
}

}  // namespace ers::bench
