// Head-to-head comparison of parallel ER against the prior algorithms of
// paper §4 — parallel aspiration, MWF, tree-splitting and PV-splitting —
// under one cost model.  The paper names this comparison as future work
// (§8); the expected shape: aspiration saturates near 5-6x, MWF plateaus
// near 6, tree-splitting decays like 1/sqrt(k) on ordered trees, and ER
// keeps climbing through 16 processors.

#include <variant>

#include "baselines/aspiration_par.hpp"
#include "baselines/mwf.hpp"
#include "baselines/pv_splitting.hpp"
#include "baselines/tree_splitting.hpp"
#include "common.hpp"
#include "sim/executor.hpp"

namespace {

using namespace ers;

struct Row {
  double er = 0, aspiration = 0, mwf = 0, tree_split = 0, pv_split = 0;
};

int log2_int(int p) {
  int h = 0;
  while ((1 << h) < p) ++h;
  return h;
}

template <Game G>
Row run_all(const G& game, const harness::ExperimentTree& tree,
            const harness::SerialBaseline& serial, int p,
            obs::TraceSession* trace) {
  const sim::CostModel cost;
  Row row;

  if (trace != nullptr) trace->clear();  // keep the last ER point only
  const auto er = harness::run_parallel_point(tree, p, serial, trace);
  row.er = er.speedup;

  // Windows partition the evaluator's actual output range (Othello's
  // heuristic stays within a few thousand; random leaves are +-10000).
  const Value bound = tree.is_othello() ? 4'000 : 10'500;
  const auto asp = baselines::parallel_aspiration_search(
      game, tree.engine.search_depth, p, bound, tree.engine.ordering, cost);
  ERS_CHECK(asp.value == serial.value);
  row.aspiration =
      static_cast<double>(serial.best_cost()) / static_cast<double>(asp.makespan);

  typename baselines::MwfEngine<G>::Config mcfg;
  mcfg.search_depth = tree.engine.search_depth;
  mcfg.serial_depth = tree.engine.serial_depth;
  mcfg.ordering = tree.engine.ordering;
  baselines::MwfEngine<G> mwf(game, mcfg);
  sim::SimExecutor<baselines::MwfEngine<G>> exec(p, cost);
  const auto mm = exec.run(mwf);
  ERS_CHECK(mwf.root_value() == serial.value);
  row.mwf = static_cast<double>(serial.best_cost()) /
            static_cast<double>(mm.makespan);

  const baselines::ProcessorTree procs{2, log2_int(p)};
  const auto ts = baselines::tree_splitting_search(
      game, tree.engine.search_depth, procs, tree.engine.ordering, cost);
  ERS_CHECK(ts.value == serial.value);
  row.tree_split =
      static_cast<double>(serial.best_cost()) / static_cast<double>(ts.finish);

  const auto pv = baselines::pv_splitting_search(
      game, tree.engine.search_depth, procs, tree.engine.ordering, cost);
  ERS_CHECK(pv.value == serial.value);
  row.pv_split =
      static_cast<double>(serial.best_cost()) / static_cast<double>(pv.finish);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv, {"R1", "R3", "O1"});
  bench::print_header(
      "Comparison (paper 8, future work): speedup of ER vs prior parallel "
      "algorithms");

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  TextTable table({"tree", "procs", "ER", "aspiration", "MWF", "tree-split",
                   "pv-split"});
  auto sweep = [&](const harness::ExperimentTree& tree) {
    const auto serial = harness::run_serial_baselines(tree);
    for (const int p : {1, 2, 4, 8, 16}) {
      const Row row = std::visit(
          [&](const auto& game) {
            return run_all(game, tree, serial, p, trace);
          },
          tree.game);
      table.add_row({tree.name, std::to_string(p), TextTable::num(row.er, 2),
                     TextTable::num(row.aspiration, 2),
                     TextTable::num(row.mwf, 2),
                     TextTable::num(row.tree_split, 2),
                     TextTable::num(row.pv_split, 2)});
    }
  };
  for (const auto& name : opt.tree_names)
    sweep(harness::tree_by_name(name, opt.scale));

  // Akl's original regime: shallow, wide random trees (his simulations used
  // 4-ply trees of various fixed degrees).  MWF's phase structure only pays
  // off here — on the deep Table 3 trees its sequential right-child gates
  // serialize most of the work.
  {
    harness::ExperimentTree akl{"A1 (akl 16^4)",
                                UniformRandomTree(16, 4, 777, -10'000, 10'000),
                                {}};
    akl.engine.search_depth = 4;
    akl.engine.serial_depth = 2;
    sweep(akl);
  }
  table.print();
  bench::write_observability(opt, trace, "comparison");
  return 0;
}
