// Shared search knowledge (beyond the paper): the lock-free transposition
// table compared across two modes on the Othello midgame suite (or the
// --trees given) with real threads —
//     none       no table (the paper's setup: workers share only the heap)
//     shared     one ConcurrentTranspositionTable probed by every worker
// The interesting number is total nodes: a shared table lets one worker's
// finished subtree cut off another's, so its node count should undercut
// the tableless control as threads grow.  OS scheduling makes any single
// threaded run noisy, so each configuration is averaged over --reps runs
// (default 5).
// Emits BENCH_ttable.json.

#include <memory>
#include <variant>

#include "common.hpp"
#include "core/parallel_er.hpp"
#include "search/concurrent_ttable.hpp"

namespace {

struct TtRun {
  ers::Value value = 0;
  std::uint64_t nodes = 0;
  std::uint64_t units = 0;
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
};

template <typename G>
TtRun run_tt_mode(const G& game, ers::core::EngineConfig cfg, int threads,
                  const std::string& mode, int table_log2, int reps) {
  using namespace ers;
  TtRun sum;
  for (int rep = 0; rep < reps; ++rep) {
    // Fresh table each rep: this measures intra-search sharing, not warmth.
    std::unique_ptr<ConcurrentTranspositionTable> shared;
    if (mode == "shared") {
      shared = std::make_unique<ConcurrentTranspositionTable>(table_log2);
      cfg.shared_table = shared.get();
    } else {
      cfg.shared_table = nullptr;
    }
    core::Engine<G> engine(game, cfg);
    runtime::ThreadExecutor<core::Engine<G>> exec(threads);
    const auto report = exec.run(engine);
    const auto& s = engine.stats().search;
    sum.value = engine.root_value();
    sum.nodes += s.nodes_generated();
    sum.units += report.units;
    sum.probes += s.tt_probes;
    sum.hits += s.tt_hits;
  }
  const auto n = static_cast<std::uint64_t>(reps);
  return TtRun{sum.value, sum.nodes / n, sum.units / n, sum.probes / n,
               sum.hits / n};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv, {"O1", "O2", "O3"});
  obs::MetricsRegistry reg;
  reg.set("bench", "contention");

  bench::print_header("Shared transposition table (thread runtime)",
                      bench::kRealThreads);
  constexpr int kTableLog2 = 20;
  TextTable tt_table({"tree", "mode", "threads", "value", "nodes", "units",
                      "tt probes", "tt hit rate"});
  std::vector<std::string> tt_json;
  std::uint64_t nodes_none_4t = 0, nodes_shared_4t = 0;
  std::string trees_run;  // "O1+O2+O3" for the default run
  for (const auto& name : opt.tree_names) {
    if (!trees_run.empty()) trees_run += '+';
    trees_run += name;
    const auto base = harness::tree_by_name(name, opt.scale);
    for (const char* mode : {"none", "shared"}) {
      for (const int threads : {1, 2, 4, 8}) {
        const TtRun r = std::visit(
            [&](const auto& game) {
              return run_tt_mode(game, base.engine, threads, mode, kTableLog2,
                                 opt.reps);
            },
            base.game);
        if (threads == 4 && std::string(mode) == "none") nodes_none_4t += r.nodes;
        if (threads == 4 && std::string(mode) == "shared")
          nodes_shared_4t += r.nodes;
        const double hit_rate =
            r.probes == 0 ? 0.0
                          : static_cast<double>(r.hits) /
                                static_cast<double>(r.probes);
        tt_table.add_row({base.name, mode, std::to_string(threads),
                          std::to_string(r.value), std::to_string(r.nodes),
                          std::to_string(r.units), std::to_string(r.probes),
                          TextTable::num(hit_rate, 3)});
        tt_json.push_back(bench::JsonObject()
                              .field("tree", base.name)
                              .field("mode", mode)
                              .field("threads", threads)
                              .field("value", static_cast<int>(r.value))
                              .field("nodes", r.nodes)
                              .field("units", r.units)
                              .field("tt_probes", r.probes)
                              .field("tt_hits", r.hits)
                              .field("tt_hit_rate", hit_rate)
                              .str());
      }
    }
  }
  tt_table.print();
  std::printf("\n%s nodes at 4 threads: none=%llu shared=%llu (%s)\n",
              trees_run.c_str(),
              static_cast<unsigned long long>(nodes_none_4t),
              static_cast<unsigned long long>(nodes_shared_4t),
              nodes_shared_4t < nodes_none_4t ? "shared table searches less"
                                              : "NO REDUCTION");
  bench::write_bench_json("ttable", opt.reps, tt_json, opt.json_out);
  bench::write_observability(opt, nullptr, reg, "contention");
  return 0;
}
