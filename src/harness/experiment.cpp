#include "harness/experiment.hpp"

#include <variant>

#include "core/parallel_er.hpp"
#include "search/alpha_beta.hpp"
#include "search/er_serial.hpp"
#include "sim/cost_model.hpp"
#include "util/check.hpp"

namespace ers::harness {

SerialBaseline run_serial_baselines(const ExperimentTree& tree) {
  const sim::CostModel cost;
  SerialBaseline out;
  std::visit(
      [&](const auto& game) {
        const auto ab = alpha_beta_search(game, tree.engine.search_depth,
                                          tree.engine.ordering);
        const auto er = er_serial_search(game, tree.engine.search_depth,
                                         tree.engine.ordering);
        ERS_CHECK(ab.value == er.value);
        out.value = ab.value;
        out.alpha_beta = ab.stats;
        out.er = er.stats;
      },
      tree.game);
  out.alpha_beta_cost = cost.of(out.alpha_beta);
  out.er_cost = cost.of(out.er);
  return out;
}

ParallelPoint run_parallel_point(const ExperimentTree& tree, int processors,
                                 const SerialBaseline& serial,
                                 obs::TraceSession* trace) {
  ParallelPoint p;
  p.processors = processors;
  std::visit(
      [&](const auto& game) {
        const auto r =
            parallel_er_sim(game, tree.engine, processors, {}, trace);
        p.value = r.value;
        p.engine = r.engine;
        p.metrics = r.metrics;
        p.mem = r.mem;
        p.waste = r.waste;
      },
      tree.game);
  ERS_CHECK(p.value == serial.value);
  p.makespan = p.metrics.makespan;
  p.nodes_generated = p.engine.search.nodes_generated();
  p.speedup = static_cast<double>(serial.best_cost()) /
              static_cast<double>(p.makespan);
  p.efficiency = p.speedup / processors;
  return p;
}

std::uint64_t serial_er_nodes(const SerialBaseline& serial) {
  return serial.er.nodes_generated();
}

}  // namespace ers::harness
