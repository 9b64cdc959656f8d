// Live search-health sampling (obs/sampler.hpp, DESIGN.md §16).
//
// Virtual-clock mode is the deterministic contract: SimExecutor polls the
// sampler at every retired event, so the same tree + config must yield the
// same time series bit for bit.  The unit tests cover the ring mechanics
// (tick schedule, drop-on-full, JSON shape); the sim tests drive the whole
// probe-over-a-live-engine path.

#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "obs/json_read.hpp"
#include "randomtree/random_tree.hpp"
#include "sim/executor.hpp"

namespace ers {
namespace {

TEST(Sampler, PollFiresEveryDueTickWithScheduledTimestamps) {
  std::uint64_t calls = 0;
  obs::Sampler s([&calls] {
    obs::SampleRow r;
    r.units = ++calls;
    return r;
  }, /*interval_ns=*/100);
  s.poll(50);  // nothing due yet
  EXPECT_EQ(s.rows().size(), 0u);
  s.poll(100);  // exactly the first tick
  ASSERT_EQ(s.rows().size(), 1u);
  EXPECT_EQ(s.rows()[0].ts_ns, 100u);
  s.poll(499);  // ticks 200, 300, 400 all due (virtual time can jump)
  ASSERT_EQ(s.rows().size(), 4u);
  EXPECT_EQ(s.rows()[3].ts_ns, 400u);
  // Timestamps are the scheduled due times, observations are cumulative.
  for (std::size_t i = 0; i < s.rows().size(); ++i) {
    EXPECT_EQ(s.rows()[i].ts_ns, (i + 1) * 100);
    EXPECT_EQ(s.rows()[i].units, i + 1);
  }
  // A poll at an already-passed time fires nothing (next_due only advances).
  s.poll(400);
  EXPECT_EQ(s.rows().size(), 4u);
}

TEST(Sampler, FullRingDropsAndCounts) {
  obs::Sampler s([] { return obs::SampleRow{}; }, /*interval_ns=*/1,
                 /*capacity=*/3);
  s.poll(10);
  EXPECT_EQ(s.rows().size(), 3u);
  EXPECT_EQ(s.dropped(), 7u);
}

TEST(Sampler, JsonShapeParsesWithSchemaFields) {
  obs::Sampler s([] {
    obs::SampleRow r;
    r.units = 5;
    r.tt_probes = 2;
    return r;
  }, /*interval_ns=*/10);
  s.poll(20);
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(s.to_json(), v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("interval_ns")->as_uint64(), 10u);
  EXPECT_EQ(v.find("dropped")->as_uint64(), 0u);
  const obs::JsonValue* samples = v.find("samples");
  ASSERT_TRUE(samples != nullptr && samples->is_array());
  ASSERT_EQ(samples->items.size(), 2u);
  for (const char* key : {"ts_ns", "units", "nodes", "live_nodes", "queued",
                          "waste_units", "waste_ns", "tt_probes", "tt_hits"})
    EXPECT_NE(samples->items[0].find(key), nullptr) << key;
  EXPECT_EQ(samples->items[1].find("units")->as_uint64(), 5u);
}

// --- deterministic series under the simulator's virtual clock -------------

core::EngineConfig cfg(int depth, int serial) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  return c;
}

/// One simulated run with a sampler polling on the virtual clock; returns
/// the sampled rows.
std::vector<obs::SampleRow> sampled_run(const UniformRandomTree& g,
                                        std::uint64_t interval) {
  core::Engine<UniformRandomTree> engine(g, cfg(5, 3));
  obs::Sampler sampler(
      [&engine] {
        obs::SampleRow row;
        const auto st = engine.stats();
        const auto w = engine.waste_stats();
        row.units = st.units_processed;
        row.nodes = st.search.nodes_generated();
        row.live_nodes = engine.mem_stats().live_nodes;
        row.queued = engine.queued_count();
        row.waste_units = w.total_units();
        row.waste_ns = w.total_ns();
        row.tt_probes = st.search.tt_probes;
        row.tt_hits = st.search.tt_hits;
        return row;
      },
      interval);
  sim::SimExecutor<core::Engine<UniformRandomTree>> exec(4);
  exec.with_sampler(&sampler);
  const auto m = exec.run(engine);
  EXPECT_GT(m.makespan, 0u);
  // The final poll at the makespan pins the series length to the virtual
  // duration, independent of host speed.
  EXPECT_EQ(sampler.rows().size() + sampler.dropped(), m.makespan / interval);
  return sampler.rows();
}

TEST(Sampler, SimSeriesIsDeterministic) {
  const UniformRandomTree g(4, 5, 123, -100, 100);
  const auto a = sampled_run(g, 50);
  const auto b = sampled_run(g, 50);
  ASSERT_FALSE(a.empty()) << "interval too coarse: no ticks inside the run";
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "row " << i << " diverged";
}

TEST(Sampler, SimSeriesIsCumulativeAndEndsAtFinalTotals) {
  const UniformRandomTree g(4, 5, 123, -100, 100);
  const auto rows = sampled_run(g, 50);
  ASSERT_FALSE(rows.empty());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].units, rows[i - 1].units);
    EXPECT_GE(rows[i].nodes, rows[i - 1].nodes);
    EXPECT_GE(rows[i].waste_units, rows[i - 1].waste_units);
  }
}

}  // namespace
}  // namespace ers
