#pragma once
// Flatteners from the runtime's, simulator's and engine's aggregate structs
// into a MetricsRegistry — the one place that knows how each ad-hoc stats
// block maps onto registry names (DESIGN.md §11 lists the schema).
//
// Prefixes keep the namespaces apart so one registry can hold a whole run:
//   sched.*   SchedulerStats        (thread runtime workers)
//   run.*     ThreadRunReport       (thread runtime totals)
//   sim.*     SimMetrics            (simulated executor)
//   engine.*  EngineStats           (scheduling state machine)
//   tt.*      transposition-table traffic (either runtime)

#include <string>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_executor.hpp"
#include "sim/executor.hpp"

namespace ers::obs {

inline void register_scheduler_stats(MetricsRegistry& reg,
                                     const runtime::SchedulerStats& s,
                                     const std::string& prefix = "sched.") {
  reg.set(prefix + "lock_acquisitions", s.lock_acquisitions);
  reg.set(prefix + "lock_wait_ns", s.lock_wait_ns);
  reg.set(prefix + "lock_hold_ns", s.lock_hold_ns);
  reg.set(prefix + "compute_ns", s.compute_ns);
  reg.set(prefix + "units", s.units);
  reg.set(prefix + "wakeups_issued", s.wakeups_issued);
  reg.set(prefix + "sleeps", s.sleeps);
  // Streaming histograms (DESIGN.md §16): compute-span and commit latencies,
  // only on traced runs (the untraced hot path never reads the clock).
  if (s.compute_hist.count() > 0)
    reg.put_histogram(prefix + "compute_span_ns", s.compute_hist);
  if (s.commit_hist.count() > 0)
    reg.put_histogram(prefix + "commit_latency_ns", s.commit_hist);
}

/// Node-storage occupancy gauges (DESIGN.md §15): arena/slab footprint and
/// cold-record reclamation totals, as `engine.mem.*`.  `cold_reclaimed > 0`
/// on a speculative workload is the observable proof that dead-subtree
/// reclamation is running.
inline void register_engine_mem_stats(MetricsRegistry& reg,
                                      const core::EngineMemStats& m,
                                      const std::string& prefix = "engine.") {
  reg.set(prefix + "mem.live_nodes", m.live_nodes);
  reg.set(prefix + "mem.hot_bytes", m.hot_bytes);
  reg.set(prefix + "mem.position_bytes", m.position_bytes);
  reg.set(prefix + "mem.cold_allocated", m.cold_allocated);
  reg.set(prefix + "mem.cold_live", m.cold_live);
  reg.set(prefix + "mem.cold_reclaimed", m.cold_reclaimed);
  reg.set(prefix + "mem.slab_bytes", m.slab_bytes);
  reg.set(prefix + "mem.peak_bytes", m.peak_bytes);
}

/// Wasted-work attribution ledger (DESIGN.md §16): per-(cause, ply-band)
/// cancel / unit / compute-ns grids plus the per-cause and grand totals the
/// benches print.  Cells are emitted only when a cause row is non-empty so
/// a speculation-free run contributes three zero totals, not 36 zeros.
inline void register_engine_waste_stats(MetricsRegistry& reg,
                                        const core::EngineWasteStats& w,
                                        const std::string& prefix = "engine.") {
  for (std::size_t c = 0; c < core::kWasteCauseCount; ++c) {
    const auto cause = static_cast<core::WasteCause>(c);
    const std::string base =
        prefix + "waste." + core::waste_cause_name(cause) + ".";
    reg.set(base + "cancels", w.cause_cancels(cause));
    reg.set(base + "units", w.cause_units(cause));
    reg.set(base + "compute_ns", w.cause_ns(cause));
    if (w.cause_cancels(cause) == 0) continue;
    for (std::size_t b = 0; b < core::kWastePlyBands; ++b) {
      const std::string band = ".ply" + std::to_string(b);
      reg.set(base + "cancels" + band, w.cancels[c][b]);
      reg.set(base + "units" + band, w.units[c][b]);
      reg.set(base + "compute_ns" + band, w.compute_ns[c][b]);
    }
  }
  reg.set(prefix + "waste.total_cancels", w.total_cancels());
  reg.set(prefix + "waste.total_units", w.total_units());
  reg.set(prefix + "waste.total_ns", w.total_ns());
}

inline void register_thread_report(MetricsRegistry& reg,
                                   const runtime::ThreadRunReport& r,
                                   const std::string& prefix = "run.") {
  reg.set(prefix + "threads", r.threads);
  reg.set(prefix + "units", r.units);
  reg.set(prefix + "elapsed_ns", r.elapsed_ns);
  reg.set(prefix + "lock_wait_share", r.lock_wait_share());
  reg.set(prefix + "lock_hold_share", r.lock_hold_share());
  reg.set("tt.probes", r.tt_probes);
  reg.set("tt.hits", r.tt_hits);
  reg.set("tt.hit_rate", r.tt_hit_rate());
  register_scheduler_stats(reg, r.sched);
  register_engine_mem_stats(reg, r.mem);
  register_engine_waste_stats(reg, r.waste);
}

inline void register_sim_metrics(MetricsRegistry& reg,
                                 const sim::SimMetrics& m,
                                 const std::string& prefix = "sim.") {
  reg.set(prefix + "processors", m.processors);
  reg.set(prefix + "makespan", m.makespan);
  reg.set(prefix + "busy_time", m.busy_time);
  reg.set(prefix + "idle_time", m.idle_time);
  reg.set(prefix + "lock_wait_time", m.lock_wait_time);
  reg.set(prefix + "units", m.units);
  reg.set(prefix + "heap_accesses", m.heap_accesses);
  reg.set(prefix + "utilization", m.utilization());
  // Simulated runs always carry exact per-unit durations, so both
  // histograms are populated (virtual-clock units).
  reg.put_histogram(prefix + "compute_span_ns", m.compute_hist);
  reg.put_histogram(prefix + "commit_latency_ns", m.commit_hist);
}

inline void register_engine_stats(MetricsRegistry& reg,
                                  const core::EngineStats& e,
                                  const std::string& prefix = "engine.") {
  reg.set(prefix + "nodes_generated", e.search.nodes_generated());
  reg.set(prefix + "leaves_evaluated", e.search.leaves_evaluated);
  reg.set(prefix + "interior_expanded", e.search.interior_expanded);
  reg.set(prefix + "sort_evals", e.search.sort_evals);
  reg.set(prefix + "units_processed", e.units_processed);
  reg.set(prefix + "serial_units", e.serial_units);
  reg.set(prefix + "promotions_mandatory", e.promotions_mandatory);
  reg.set(prefix + "promotions_speculative", e.promotions_speculative);
  reg.set(prefix + "refutations_dispatched", e.refutations_dispatched);
  reg.set(prefix + "cutoffs_at_pop", e.cutoffs_at_pop);
  reg.set(prefix + "dead_items_dropped", e.dead_items_dropped);
  reg.set("tt.probes", e.search.tt_probes);
  reg.set("tt.hits", e.search.tt_hits);
  reg.set("tt.stores", e.search.tt_stores);
}

/// Flatten one search's SearchStats — used by the ABDADA runner
/// (`abdada.*`), where the deferred/revisited counters carry the
/// algorithm-specific signal, but prefix-agnostic so any searcher can
/// publish under its own namespace.
inline void register_search_stats(MetricsRegistry& reg, const SearchStats& s,
                                  const std::string& prefix) {
  reg.set(prefix + "nodes_generated", s.nodes_generated());
  reg.set(prefix + "interior_expanded", s.interior_expanded);
  reg.set(prefix + "leaves_evaluated", s.leaves_evaluated);
  reg.set(prefix + "child_sorts", s.child_sorts);
  reg.set(prefix + "sort_evals", s.sort_evals);
  reg.set(prefix + "tt_probes", s.tt_probes);
  reg.set(prefix + "tt_hits", s.tt_hits);
  reg.set(prefix + "tt_hit_rate", s.tt_hit_rate());
  reg.set(prefix + "tt_stores", s.tt_stores);
  reg.set(prefix + "moves_deferred", s.moves_deferred);
  reg.set(prefix + "moves_revisited", s.moves_revisited);
  // Shared ordering tables (search/ordering.hpp).
  reg.set(prefix + "order.tt_first", s.order_tt_first);
  reg.set(prefix + "order.killer_hits", s.order_killer_hits);
  reg.set(prefix + "order.history_hits", s.order_history_hits);
}

}  // namespace ers::obs
