// Determinism and metric sanity for the discrete-event simulated executor.

#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include "core/parallel_er.hpp"
#include "randomtree/random_tree.hpp"
#include "search/er_serial.hpp"

namespace ers {
namespace {

core::EngineConfig cfg(int depth, int serial) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  return c;
}

TEST(Sim, BitReproducible) {
  const UniformRandomTree g(4, 5, 123, -100, 100);
  const auto a = parallel_er_sim(g, cfg(5, 3), 8);
  const auto b = parallel_er_sim(g, cfg(5, 3), 8);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.metrics.busy_time, b.metrics.busy_time);
  EXPECT_EQ(a.metrics.idle_time, b.metrics.idle_time);
  EXPECT_EQ(a.engine.search.nodes_generated(), b.engine.search.nodes_generated());
  EXPECT_EQ(a.engine.units_processed, b.engine.units_processed);
}

TEST(Sim, DifferentSeedsDifferentSchedules) {
  const UniformRandomTree g1(4, 5, 1, -100, 100);
  const UniformRandomTree g2(4, 5, 2, -100, 100);
  const auto a = parallel_er_sim(g1, cfg(5, 3), 8);
  const auto b = parallel_er_sim(g2, cfg(5, 3), 8);
  EXPECT_NE(a.metrics.makespan, b.metrics.makespan);
}

TEST(Sim, OneProcessorHasNoIdleTime) {
  const UniformRandomTree g(3, 4, 5, -50, 50);
  const auto r = parallel_er_sim(g, cfg(4, 2), 1);
  EXPECT_EQ(r.metrics.idle_time, 0u);
  EXPECT_EQ(r.metrics.lock_wait_time, 0u) << "one processor never contends";
  EXPECT_EQ(r.metrics.processors, 1);
}

TEST(Sim, ManyProcessorsStarveOnTinyTree) {
  const UniformRandomTree g(2, 2, 5, -50, 50);
  const auto r = parallel_er_sim(g, cfg(2, 1), 16);
  EXPECT_GT(r.metrics.idle_time, 0u) << "16 processors cannot all stay busy";
}

TEST(Sim, MakespanBoundedByTotalWork) {
  // P processors cannot be slower than... the makespan must at least cover
  // busy_time / P, and cannot exceed busy+idle+lock ranges.
  const UniformRandomTree g(4, 5, 17, -100, 100);
  for (int p : {1, 2, 4, 8}) {
    const auto r = parallel_er_sim(g, cfg(5, 3), p);
    EXPECT_GE(static_cast<double>(r.metrics.makespan) * p,
              static_cast<double>(r.metrics.busy_time))
        << "p=" << p;
    EXPECT_LE(r.metrics.busy_time + r.metrics.idle_time,
              static_cast<std::uint64_t>(r.metrics.makespan) * p +
                  r.metrics.makespan)
        << "p=" << p;
  }
}

TEST(Sim, UtilizationInUnitRange) {
  const UniformRandomTree g(4, 5, 29, -100, 100);
  for (int p : {1, 4, 16}) {
    const auto r = parallel_er_sim(g, cfg(5, 3), p);
    EXPECT_GT(r.metrics.utilization(), 0.0);
    EXPECT_LE(r.metrics.utilization(), 1.0 + 1e-9);
  }
}

TEST(Sim, HigherQueueCostIncreasesMakespan) {
  // The interference knob must actually model contention.
  const UniformRandomTree g(4, 5, 31, -100, 100);
  sim::CostModel cheap;
  cheap.per_heap_acquire = 0;
  cheap.per_heap_commit = 0;
  sim::CostModel pricey;
  pricey.per_heap_acquire = 10;
  pricey.per_heap_commit = 10;
  const auto a = parallel_er_sim(g, cfg(5, 3), 8, cheap);
  const auto b = parallel_er_sim(g, cfg(5, 3), 8, pricey);
  EXPECT_LT(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.value, b.value) << "cost model must never affect the result";
}

TEST(Sim, CostModelOfCountsAllComponents) {
  sim::CostModel m;
  m.per_interior = 3;
  m.per_leaf = 5;
  m.per_sort_eval = 7;
  m.per_unit_base = 11;
  SearchStats s;
  s.interior_expanded = 2;
  s.leaves_evaluated = 4;
  s.sort_evals = 1;
  EXPECT_EQ(m.of(s), 11u + 6u + 20u + 7u);
}

}  // namespace
}  // namespace ers
