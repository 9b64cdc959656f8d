// The problem-heap scheduler on the real thread runtime (the paper's §6
// contention bottleneck: every unit takes the heap lock to be acquired and
// again to be committed).
//
// Sweeps threads {1, 2, 4, 8} over the Othello midgame suite (O1–O3) and
// the random trees (R1, R3), measuring with the executor's own
// SchedulerStats:
//   * units/sec          — scheduler throughput (wall clock, --reps runs)
//   * lock-wait share    — fraction of worker-time blocked on the heap lock
//   * locks/unit         — serialized heap entries per unit of work
//   * nodes              — total nodes generated (speculative loss control)
// Correctness bar, checked here on every run: identical root value to
// serial alpha-beta at every thread count.
//
// Emits BENCH_scheduler.json (schema: bench/reps stamps + one row per
// configuration).  It is also the run the CI trace and telemetry lanes
// record (--trace, --metrics, --prom-out, --sample-ms).

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/parallel_er.hpp"
#include "search/alpha_beta.hpp"

namespace {

struct SchedRun {
  ers::Value value = 0;
  std::uint64_t nodes = 0;       ///< mean over reps
  std::uint64_t units = 0;       ///< mean over reps
  double units_per_sec = 0.0;    ///< mean over reps
  double lock_wait_share = 0.0;  ///< mean over reps
  double locks_per_unit = 0.0;
  std::uint64_t wakeups = 0;  ///< mean over reps
  std::uint64_t sleeps = 0;   ///< mean over reps
};

template <typename G>
SchedRun run_config(const G& game, const ers::core::EngineConfig& cfg,
                    int threads, int reps, ers::Value oracle,
                    ers::obs::TraceSession* trace,
                    ers::obs::MetricsRegistry* reg, int sample_ms,
                    std::unique_ptr<ers::obs::Sampler>* sampler_out) {
  using namespace ers;
  SchedRun sum;
  std::uint64_t lock_acqs = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Only the last rep is traced (a fresh session each time), so the
    // exported file holds one clean schedule of this configuration — the
    // sweep's last configuration wins the file.
    const bool traced = trace != nullptr && rep == reps - 1;
    if (traced) trace->clear();
    auto run_cfg = cfg;
    run_cfg.trace = traced ? trace : nullptr;
    core::Engine<G> engine(game, run_cfg);
    runtime::ThreadExecutor<core::Engine<G>> exec(threads);
    exec.with_trace(traced ? trace : nullptr);
    // Live sampling (--sample-ms): a background thread snapshots the
    // engine's own thread-safe observers while the run executes.  Like the
    // trace, only the last rep is sampled and the sweep's last
    // configuration wins the file.
    std::unique_ptr<obs::Sampler> sampler;
    if (sample_ms > 0 && rep == reps - 1) {
      sampler = std::make_unique<obs::Sampler>(
          [&engine] {
            obs::SampleRow row;
            const auto st = engine.stats();
            const auto mem = engine.mem_stats();
            const auto w = engine.waste_stats();
            row.units = st.units_processed;
            row.nodes = st.search.nodes_generated();
            row.live_nodes = mem.live_nodes;
            row.queued = engine.queued_count();
            row.waste_units = w.total_units();
            row.waste_ns = w.total_ns();
            row.tt_probes = st.search.tt_probes;
            row.tt_hits = st.search.tt_hits;
            return row;
          },
          static_cast<std::uint64_t>(sample_ms) * 1'000'000ull);
      sampler->start();
    }
    const auto report = exec.run(engine);
    if (sampler != nullptr) {
      sampler->stop();  // ring is safe to read / hand off from here
      if (sampler_out != nullptr) *sampler_out = std::move(sampler);
    }
    if (traced && reg != nullptr) obs::register_thread_report(*reg, report);
    ERS_CHECK(engine.root_value() == oracle &&
              "thread runtime changed the search result");
    sum.value = engine.root_value();
    sum.nodes += engine.stats().search.nodes_generated();
    sum.units += report.units;
    sum.units_per_sec += report.elapsed_ns == 0
                             ? 0.0
                             : static_cast<double>(report.units) * 1e9 /
                                   static_cast<double>(report.elapsed_ns);
    sum.lock_wait_share += report.lock_wait_share();
    sum.wakeups += report.sched.wakeups_issued;
    sum.sleeps += report.sched.sleeps;
    lock_acqs += report.sched.lock_acquisitions;
  }
  const auto n = static_cast<std::uint64_t>(reps);
  sum.nodes /= n;
  sum.units /= n;
  sum.units_per_sec /= static_cast<double>(reps);
  sum.lock_wait_share /= static_cast<double>(reps);
  sum.wakeups /= n;
  sum.sleeps /= n;
  sum.locks_per_unit = sum.units == 0
                           ? 0.0
                           : static_cast<double>(lock_acqs / n) /
                                 static_cast<double>(sum.units);
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  auto opt = bench::parse_options(argc, argv, {"O1", "O2", "O3", "R1", "R3"});
  bench::print_header("Problem-heap scheduling (thread runtime)");
  std::printf("reps per configuration: %d\n\n", opt.reps);

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "scheduler");
  std::unique_ptr<obs::Sampler> sampler;  // last sampled configuration
  TextTable table({"tree", "threads", "units/s", "lock share", "locks/unit",
                   "nodes", "value"});
  std::vector<std::string> json;
  for (const auto& name : opt.tree_names) {
    const auto base = harness::tree_by_name(name, opt.scale);
    const Value oracle = std::visit(
        [&](const auto& game) {
          return alpha_beta_search(game, base.engine.search_depth,
                                   base.engine.ordering)
              .value;
        },
        base.game);
    for (const int threads : {1, 2, 4, 8}) {
      const SchedRun r = std::visit(
          [&](const auto& game) {
            return run_config(game, base.engine, threads, opt.reps, oracle,
                              trace, &reg, opt.sample_ms, &sampler);
          },
          base.game);
      reg.set("tree", base.name);
      table.add_row({base.name, std::to_string(threads),
                     TextTable::num(r.units_per_sec, 0),
                     TextTable::num(r.lock_wait_share, 4),
                     TextTable::num(r.locks_per_unit, 3),
                     std::to_string(r.nodes), std::to_string(r.value)});
      json.push_back(bench::JsonObject()
                         .field("tree", base.name)
                         .field("threads", threads)
                         .field("units", r.units)
                         .field("units_per_sec", r.units_per_sec)
                         .field("lock_wait_share", r.lock_wait_share)
                         .field("locks_per_unit", r.locks_per_unit)
                         .field("wakeups", r.wakeups)
                         .field("sleeps", r.sleeps)
                         .field("nodes", r.nodes)
                         .field("value", static_cast<int>(r.value))
                         .str());
    }
  }
  table.print();
  bench::write_bench_json("scheduler", opt.reps, json, opt.json_out);
  bench::write_observability(opt, trace, reg, "scheduler");
  if (sampler != nullptr) sampler->write_json(opt.sample_sink());
  return 0;
}
