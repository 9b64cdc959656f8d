#pragma once
// Shared-memory runtime: OS-thread workers driving the problem-heap engine
// (the counterpart of the paper's Sequent implementation).  Worker 0 is the
// calling thread; the others are its persistent helpers
// (runtime/worker_pool.hpp), so a run starts no thread.
//
// The engine synchronizes itself (one mutex, taken by every acquire and
// commit; DESIGN.md §10) and decides quiescence itself (its acquire()
// aborts on a stall), so this executor holds no engine-wrapping lock and
// counts no units in flight.  What remains up here is scheduling policy —
// one worker loop and targeted wakeups — plus a small wake mutex that
// exists only to park starving workers on a condition variable without
// lost wakeups.  The heavy compute phase — child generation and serial
// subtree searches — runs with no lock of any kind held, which is where
// the real parallelism lives.
//
// Each worker takes one unit from the engine, computes it with no lock
// held and commits it — the paper's processor loop, two engine lock
// sections per unit.  Wakeups are targeted: a worker that acquires work
// wakes only as many sleepers as there are units actually left on the
// queues (no notify_all thundering herd), and a starving worker yields a
// few times before sleeping so it can catch work released a few
// microseconds later without a futex round trip.  Every worker keeps a
// SchedulerStats block; the engine's own lock accounting (EngineLockStats)
// is folded into the aggregate once every worker has returned, so
// contention is measurable, not guessed (bench_scheduler consumes exactly
// these counters).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "obs/trace.hpp"
#include "runtime/worker_pool.hpp"
#include "util/check.hpp"

namespace ers::runtime {

/// Per-worker scheduler observability, merged across workers into the run
/// report.  Times come from steady_clock; on a loaded machine lock_wait_ns
/// includes preemption of the lock holder, which is precisely the
/// interference a real shared heap suffers.  Cache-line aligned: each
/// worker bumps its own block once per unit, and the blocks sit side by
/// side in one vector.
struct alignas(64) SchedulerStats {
  /// Engine lock sections.  Workers hold no executor-side engine mutex, so
  /// these three stay zero in the per-worker blocks and are populated by
  /// folding the engine's own EngineLockStats into the aggregate once every
  /// worker has returned (run() does this).
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_wait_ns = 0;  ///< blocked entering a serialized section
  std::uint64_t lock_hold_ns = 0;  ///< inside a serialized section
  /// Time inside the compute phase (the busy timeline).  Measured — from
  /// the same clock readings the trace spans use, so the two totals agree
  /// exactly — only while a trace session is attached; 0 otherwise, keeping
  /// the untraced hot path free of per-unit clock reads.
  std::uint64_t compute_ns = 0;
  std::uint64_t units = 0;         ///< work units computed and committed
  std::uint64_t wakeups_issued = 0;  ///< targeted notify_one calls
  std::uint64_t sleeps = 0;          ///< times a worker parked on the cv

  /// The one way per-worker blocks fold into an aggregate (the executor and
  /// every bench go through here, never field-by-field addition).
  void merge(const SchedulerStats& o) {
    lock_acquisitions += o.lock_acquisitions;
    lock_wait_ns += o.lock_wait_ns;
    lock_hold_ns += o.lock_hold_ns;
    compute_ns += o.compute_ns;
    units += o.units;
    wakeups_issued += o.wakeups_issued;
    sleeps += o.sleeps;
  }
};

struct ThreadRunReport {
  std::uint64_t units = 0;
  int threads = 0;
  std::uint64_t elapsed_ns = 0;  ///< wall time of the run() call
  SchedulerStats sched;          ///< aggregated across workers + engine locks
  /// Node-storage occupancy at the end of the run: node count and the
  /// arena and cold-record bytes (DESIGN.md §15).
  core::EngineMemStats mem;

  /// Fold another run of the same call into this report: counters add up,
  /// and mem keeps the larger run's snapshot (peak memory is a maximum,
  /// not a sum).  elapsed_ns is left to the caller, which alone knows the
  /// span that covers both runs.
  void merge(const ThreadRunReport& o) {
    units += o.units;
    threads = o.threads;
    sched.merge(o.sched);
    if (o.mem.peak_bytes > mem.peak_bytes) mem = o.mem;
  }

  /// Fraction of total worker-time spent blocked on the heap lock.
  [[nodiscard]] double lock_wait_share() const noexcept {
    const double total = static_cast<double>(elapsed_ns) *
                         static_cast<double>(threads);
    return total > 0 ? static_cast<double>(sched.lock_wait_ns) / total : 0.0;
  }
};

template <typename EngineT>
class ThreadExecutor {
 public:
  explicit ThreadExecutor(int threads) : threads_(threads) {
    ERS_CHECK(threads >= 1);
  }

  /// Attach a trace session: every worker records its scheduling events
  /// (compute spans, sleeps, wakeups) into its own ring,
  /// stamped with steady-clock ns from the session epoch; the engine's lock
  /// wait/hold spans land on the same per-worker rings via the session's
  /// thread-local tracer, which each worker installs for the run.
  /// The session must outlive run(); read it only after run() returns.
  /// Null (the default) keeps the untraced hot path: no clock reads, no
  /// stores.  Trace spans reuse the very timestamps the stats arithmetic
  /// takes, so per-worker trace totals and the run report agree exactly up
  /// to ring-buffer drops.
  ThreadExecutor& with_trace(obs::TraceSession* session) noexcept {
    trace_ = session;
    return *this;
  }

  /// Run the engine to completion on `threads_` workers, worker 0 on the
  /// calling thread; blocks until done.  If a worker throws, the others
  /// stop and the first exception is rethrown here.
  ThreadRunReport run(EngineT& engine) {
    using Clock = std::chrono::steady_clock;
    const auto run_start = Clock::now();

    if (trace_ != nullptr) trace_->ensure_workers(threads_);

    // Set when a worker throws: its unit never commits, so its peers would
    // wait on it forever.
    std::atomic<bool> failed{false};

    // Parking.  wake_mu serializes only the sleep/wake handshake, never any
    // engine access on the waker's side: wakers make work visible first
    // (inside the engine), then pass through wake_mu, so a parking worker
    // that re-checks under wake_mu either sees the work or is already in
    // wait() when the notify lands — no lost wakeups.  Sleepers do read the
    // engine's queue counts while holding wake_mu; nothing takes wake_mu
    // while holding an engine lock, so the hierarchy stays acyclic.
    std::mutex wake_mu;
    std::condition_variable cv;
    std::atomic<int> sleepers{0};  // mutated under wake_mu; read lock-free

    std::vector<SchedulerStats> stats(static_cast<std::size_t>(threads_));

    // Park until work plausibly exists again.  No stall can strand a
    // sleeper: the worker whose commit leaves the engine quiescent acquires
    // next, and that acquire aborts.
    auto park = [&](SchedulerStats& st, obs::Tracer* tr) {
      std::unique_lock<std::mutex> lk(wake_mu);
      auto ready = [&] {
        return engine.done() || failed.load() || engine.queued_count() > 0;
      };
      if (ready()) return;
      sleepers.fetch_add(1);
      ++st.sleeps;
      const auto sleep_from =
          tr != nullptr ? Clock::now() : Clock::time_point{};
      cv.wait(lk, ready);
      sleepers.fetch_sub(1);
      lk.unlock();
      if (tr != nullptr)
        tr->span(obs::EventKind::kSleepSpan, trace_->to_ns(sleep_from),
                 trace_->now_ns());
    };

    // Targeted wakeups: at most one sleeper per unit actually available.
    // The empty wake_mu section pairs with the sleeper's locked re-check
    // (see above).
    auto wake_for = [&](SchedulerStats& st, obs::Tracer* tr) {
      if (sleepers.load() <= 0) return;
      const std::size_t avail = engine.queued_count();
      const std::size_t wake =
          std::min(avail, static_cast<std::size_t>(sleepers.load()));
      if (wake == 0) return;
      { std::lock_guard<std::mutex> g(wake_mu); }
      st.wakeups_issued += wake;
      for (std::size_t i = 0; i < wake; ++i) cv.notify_one();
      if (tr != nullptr)
        tr->instant(obs::EventKind::kWakeup, trace_->now_ns(),
                    obs::kNoTraceNode, static_cast<std::uint32_t>(wake));
    };

    // Exit path: pass through wake_mu before the broadcast so sleepers'
    // locked re-checks are ordered against our observation of done/failed.
    auto broadcast_exit = [&] {
      obs::TraceSession::set_thread_tracer(nullptr);
      { std::lock_guard<std::mutex> g(wake_mu); }
      cv.notify_all();
    };

    // --- the worker loop ----------------------------------------------------
    // Acquire one unit, compute it, commit it, repeat.  All engine
    // synchronization happens inside the engine: every acquire and every
    // commit takes its one lock.
    auto work_loop = [&](int index) {
      SchedulerStats& st = stats[static_cast<std::size_t>(index)];
      obs::Tracer* tr = trace_ == nullptr ? nullptr : &trace_->worker(index);
      obs::TraceSession::set_thread_tracer(tr);
      // One result buffer per worker, reused across units: the engine
      // copies child positions out at commit and never moves the buffer,
      // so steady-state expansion computes into a warm vector instead of
      // allocating a fresh one per unit.
      ResultT result{};
      int spins = 0;

      for (;;) {
        if (engine.done() || failed.load()) return broadcast_exit();

        const auto item = engine.acquire();
        if (!item) {
          if (spins < kDryYieldRounds) {
            // Bounded backoff before the futex sleep: yield, don't pause —
            // work is usually released within a commit or two, and a
            // voluntary reschedule donates the timeslice to whichever
            // worker holds it (decisive on an oversubscribed machine,
            // where a pause loop just burns the quantum the work holder
            // needs), while a sleep plus wakeup costs two syscalls.
            ++spins;
            std::this_thread::yield();
            continue;
          }
          spins = 0;
          park(st, tr);
          continue;
        }
        spins = 0;
        wake_for(st, tr);

        // --- parallel section: compute with no lock held, then commit ----
        if (tr == nullptr) {
          engine.compute_into(*item, result);
          engine.commit(*item, result);
        } else {
          const auto c0 = Clock::now();
          engine.compute_into(*item, result);
          const auto c1 = Clock::now();
          const std::uint64_t cns = ns(c0, c1);
          st.compute_ns += cns;
          result.compute_ns = cns;
          tr->span(obs::EventKind::kComputeSpan, trace_->to_ns(c0),
                   trace_->to_ns(c1), item->node);
          engine.commit(*item, result);
        }
        ++st.units;
      }
    };

    // A worker that throws leaves its unit uncommitted, and its peers would
    // park on it forever: send them home, then let run_on_workers rethrow
    // in the caller once every worker has returned.
    auto worker = [&](int index) {
      try {
        work_loop(index);
      } catch (...) {
        failed.store(true);
        broadcast_exit();
        throw;
      }
    };
    run_on_workers(threads_, worker);
    ERS_CHECK(engine.done());

    ThreadRunReport report;
    report.threads = threads_;
    report.elapsed_ns = ns(run_start, Clock::now());
    for (const SchedulerStats& st : stats) report.sched.merge(st);
    report.units = report.sched.units;
    // Fold the engine's lock accounting into the aggregate the benches
    // read.
    const core::EngineLockStats ls = engine.lock_stats();
    report.sched.lock_acquisitions += ls.acquisitions;
    report.sched.lock_wait_ns += ls.wait_ns;
    report.sched.lock_hold_ns += ls.hold_ns;
    report.mem = engine.mem_stats();
    return report;
  }

 private:
  using ResultT = typename EngineT::ComputeResult;

  /// Yield-retry rounds a dry worker donates its timeslice through before
  /// parking on the condition variable (a futex sleep plus wakeup costs two
  /// syscalls; work is usually released within a commit or two).
  static constexpr int kDryYieldRounds = 16;

  [[nodiscard]] static std::uint64_t ns(
      std::chrono::steady_clock::time_point a,
      std::chrono::steady_clock::time_point b) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }

  int threads_;
  obs::TraceSession* trace_ = nullptr;  ///< not owned; null = untraced
};

}  // namespace ers::runtime
