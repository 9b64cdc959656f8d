#pragma once
// Deterministic discrete-event simulation of P processors driving a
// problem-heap engine (DESIGN.md §1: the substitute for the paper's Sequent
// Symmetry).
//
// The executor works with any engine exposing the protocol of
// core::Engine — acquire()/compute()/commit()/done() — so the same harness
// simulates parallel ER and the MWF baseline.
//
// Model:
//  * P identical virtual processors.  A processor is either idle (starving)
//    or busy with one work unit.
//  * acquire+compute+commit form one unit.  The heavy compute part costs
//    CostModel::of(unit stats); the acquire and the commit each perform one
//    access to the shared problem heap (CostModel::per_heap_acquire /
//    per_heap_commit), serialized by the heap's one lock, modeling the
//    paper's interference loss.
//    Engine state changes are applied atomically in event order, so the
//    schedule is deterministic and the search result is exact; the lock
//    models *time*, not state races.
//  * The run ends the moment the engine reports done (root combined); work
//    still in flight at that point is abandoned speculative work, exactly as
//    on the real machine.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/cost_model.hpp"
#include "util/check.hpp"

namespace ers::sim {

struct SimMetrics {
  std::uint64_t makespan = 0;        ///< simulated completion time
  std::uint64_t busy_time = 0;       ///< total processor-time spent computing
  std::uint64_t idle_time = 0;       ///< total processor-time starving
  std::uint64_t lock_wait_time = 0;  ///< total time blocked on the heap lock
  std::uint64_t units = 0;           ///< work units completed
  std::uint64_t heap_accesses = 0;   ///< serialized heap ops (acquire+commit)
  /// Distribution views of the run (obs/histogram.hpp), mirroring the
  /// thread scheduler's pair: per-unit compute cost and per-unit commit
  /// latency (completion to processor freed: lock wait + apply).
  /// Deterministic under the virtual clock.
  obs::Histogram compute_hist;
  obs::Histogram commit_hist;
  int processors = 0;

  /// Fraction of processor-time that did useful work.
  [[nodiscard]] double utilization() const noexcept {
    const double total =
        static_cast<double>(makespan) * static_cast<double>(processors);
    return total > 0 ? static_cast<double>(busy_time) / total : 0.0;
  }
};

template <typename EngineT>
class SimExecutor {
 public:
  SimExecutor(int processors, CostModel cost = {})
      : processors_(processors), cost_(cost) {
    ERS_CHECK(processors >= 1);
  }

  /// Attach a trace session: the simulator emits the *same* event schema as
  /// the thread runtime (lock wait/hold, compute spans, starvation as sleep
  /// spans) stamped on its virtual clock — one
  /// simulated cost unit per "ns" — so a simulated and a real run of the
  /// same tree open side by side in one Perfetto view.  The session is
  /// switched to its virtual clock, which also timestamps the engine's own
  /// trace hooks.  Deterministic: same engine + config ⇒ identical events.
  SimExecutor& with_trace(obs::TraceSession* session) noexcept {
    trace_ = obs::kTracingEnabled ? session : nullptr;
    return *this;
  }

  /// Attach a sampler driven in virtual-clock mode: the executor polls it at
  /// every event it retires (and once at the makespan), so the time series
  /// is a pure function of the schedule — deterministic, bit for bit
  /// (sampler_test.cpp).  The probe runs synchronously on the simulator
  /// thread at the poll points; do not start() the sampler's own thread.
  SimExecutor& with_sampler(obs::Sampler* sampler) noexcept {
    sampler_ = sampler;
    return *this;
  }

  /// Run the engine to completion; returns the simulated metrics.
  SimMetrics run(EngineT& engine) {
    using ItemT = std::decay_t<decltype(*engine.acquire())>;
    using ComputeT = decltype(engine.compute(*engine.acquire()));

    struct Completion {
      std::uint64_t t;
      std::uint64_t seq;
      std::uint64_t started;
      int worker;
      ItemT item;
      ComputeT result;
    };
    struct Later {
      bool operator()(const Completion& a, const Completion& b) const noexcept {
        return a.t != b.t ? a.t > b.t : a.seq > b.seq;
      }
    };
    std::priority_queue<Completion, std::vector<Completion>, Later> inflight;

    struct IdleWorker {
      std::uint64_t since;
      int id;
      bool operator>(const IdleWorker& o) const noexcept {
        return since != o.since ? since > o.since : id > o.id;
      }
    };
    std::priority_queue<IdleWorker, std::vector<IdleWorker>, std::greater<>> idle;
    for (int w = 0; w < processors_; ++w) idle.push(IdleWorker{0, w});

    SimMetrics m;
    m.processors = processors_;
    if (trace_ != nullptr) {
      trace_->ensure_workers(processors_);
      trace_->use_virtual_clock();
    }
    std::uint64_t now = 0;
    // A heap access holds the heap lock for `op_cost` serialized time
    // units, starting once the lock is free; returns the start time.
    std::uint64_t lock_free = 0;
    auto lock_acquire = [&](std::uint64_t at, std::uint64_t op_cost) {
      const std::uint64_t start = std::max(at, lock_free);
      lock_free = start + op_cost;
      ++m.heap_accesses;
      return start;
    };
    std::uint64_t seq = 0;

    auto dispatch = [&] {
      while (!idle.empty()) {
        // The worker that will take the unit is known before the pop (the
        // longest-starved one); point the engine's trace hooks at it so
        // acquire-time cancellations are attributed to the right track.
        const IdleWorker w = idle.top();
        if (trace_ != nullptr) {
          trace_->set_current_worker(w.id);
          trace_->set_virtual_now(now);
        }
        std::optional<ItemT> item = engine.acquire();
        if (!item) break;
        idle.pop();
        m.idle_time += now - w.since;
        const std::uint64_t start = lock_acquire(now, cost_.per_heap_acquire);
        m.lock_wait_time += start - now;
        auto result = engine.compute(*item);
        const std::uint64_t c = cost_.of(result.stats);
        m.compute_hist.record(c);
        // The unit's virtual compute duration rides the result into
        // commit_one: the engine's waste ledger charges exactly this on
        // cancellation, making sim-side waste ns exact (not sampled).
        if constexpr (requires { result.compute_ns; }) result.compute_ns = c;
        const std::uint64_t t = start + cost_.per_heap_acquire;
        if (trace_ != nullptr) {
          obs::Tracer& tr = trace_->worker(w.id);
          if (now > w.since) tr.span(obs::EventKind::kSleepSpan, w.since, now);
          if (start > now) tr.span(obs::EventKind::kLockWaitSpan, now, start);
          tr.span(obs::EventKind::kLockHoldSpan, start, t);
          tr.span(obs::EventKind::kComputeSpan, t, t + c, node_of(*item));
          trace_tt(tr, t + c, node_of(*item), result);
        }
        inflight.push(Completion{t + c, seq++, start, w.id, std::move(*item),
                                 std::move(result)});
      }
    };

    dispatch();
    while (!engine.done()) {
      ERS_CHECK(!inflight.empty() && "problem-heap engine stalled");
      Completion ev = std::move(const_cast<Completion&>(inflight.top()));
      inflight.pop();
      now = ev.t;
      const std::uint64_t commit_cost = cost_.per_heap_commit;
      const std::uint64_t start = lock_acquire(now, commit_cost);
      m.lock_wait_time += start - now;
      if (trace_ != nullptr) {
        obs::Tracer& tr = trace_->worker(ev.worker);
        if (start > now)
          tr.span(obs::EventKind::kLockWaitSpan, now, start);
        tr.span(obs::EventKind::kLockHoldSpan, start, start + commit_cost);
        trace_->set_current_worker(ev.worker);
        trace_->set_virtual_now(start);
      }
      const std::uint64_t freed_at = start + commit_cost;
      // Busy time is credited at commit so that work still in flight when
      // the root combines can be clamped to the makespan below.
      m.busy_time += (ev.t - ev.started) + commit_cost;
      engine.commit(ev.item, std::move(ev.result));
      ++m.units;
      m.commit_hist.record(freed_at - ev.t);
      m.makespan = std::max(m.makespan, freed_at);
      idle.push(IdleWorker{freed_at, ev.worker});
      now = freed_at;
      // Sample after the commit landed: a tick due at virtual time T sees
      // the engine exactly as of the last event retired at or before T.
      if (sampler_ != nullptr) sampler_->poll(now);
      dispatch();
    }
    if (sampler_ != nullptr) sampler_->poll(m.makespan);

    // Work still in flight when the search completed is abandoned
    // speculative work: it kept its processor busy only until the makespan.
    while (!inflight.empty()) {
      const Completion& ev = inflight.top();
      if (m.makespan > ev.started) m.busy_time += m.makespan - ev.started;
      inflight.pop();
    }
    // Remaining in-flight work is abandoned; idle processors starve until
    // the makespan.
    while (!idle.empty()) {
      const IdleWorker w = idle.top();
      idle.pop();
      if (m.makespan > w.since) {
        m.idle_time += m.makespan - w.since;
        if (trace_ != nullptr)
          trace_->worker(w.id).span(obs::EventKind::kSleepSpan, w.since,
                                    m.makespan);
      }
    }
    return m;
  }

 private:
  /// Engine node id of a work item, for trace events; kNoTraceNode for
  /// engines whose items carry no node id.
  template <typename Item>
  [[nodiscard]] static std::uint32_t node_of(const Item& item) noexcept {
    if constexpr (requires { item.node; })
      return static_cast<std::uint32_t>(item.node);
    else
      return obs::kNoTraceNode;
  }

  /// Per-unit transposition-table traffic as trace instants, mirroring the
  /// thread runtime's schema (same kinds, same arg meaning).
  template <typename Result>
  static void trace_tt(obs::Tracer& tr, std::uint64_t ts, std::uint32_t node,
                       const Result& r) {
    if constexpr (requires { r.stats.tt_probes; }) {
      if (r.stats.tt_probes > 0)
        tr.instant(obs::EventKind::kTtProbe, ts, node,
                   static_cast<std::uint32_t>(r.stats.tt_probes));
      if (r.stats.tt_hits > 0)
        tr.instant(obs::EventKind::kTtHit, ts, node,
                   static_cast<std::uint32_t>(r.stats.tt_hits));
    } else {
      (void)tr;
      (void)ts;
      (void)node;
    }
  }

  int processors_;
  CostModel cost_;
  obs::TraceSession* trace_ = nullptr;  ///< not owned; null = untraced
  obs::Sampler* sampler_ = nullptr;     ///< not owned; polled in virtual mode
};

}  // namespace ers::sim
