#pragma once
// Shared-memory runtime: OS-thread workers driving a problem-heap engine
// (the counterpart of the paper's Sequent implementation).  Worker 0 is the
// calling thread; the others are its persistent helpers
// (runtime/worker_pool.hpp), so a run starts no thread.
//
// The engine synchronizes itself (one mutex, taken by every acquire and
// commit; DESIGN.md §10), so this executor holds no engine-wrapping lock.
// What remains up here is scheduling policy — one worker loop, targeted
// wakeups and the stall check — plus a small wake mutex that exists only to
// park starving workers on a condition variable without lost wakeups.  The
// heavy compute phase — child generation and serial subtree searches —
// runs with no lock of any kind held, which is where the real parallelism
// lives.
//
// Batched scheduling (paper §6's contention remedy): each worker keeps a
// small local run buffer filled by one acquire_batch call and a local
// completion buffer flushed through one commit_batch call, so the engine's
// serialized sections are entered once per batch instead of twice per unit.
// Wakeups are targeted: a worker that commits or acquires work wakes only
// as many sleepers as there are units actually left on the queues (no
// notify_all thundering herd), and a starving worker yields a few times
// before sleeping so it can catch work released a few microseconds later
// without a futex round trip.  Every worker keeps a SchedulerStats block; the engine's
// own lock accounting (EngineLockStats) is folded into the aggregate once
// every worker has returned, so contention is measurable, not guessed (bench_scheduler
// consumes exactly these counters).
//
// Transposition tables: the engine's EngineConfig::shared_table (one
// lock-free table, every worker probes/stores it) is the production setup.
// use_per_thread_tables() is the bench control: each worker gets a private
// table of the same size, isolating the benefit of *sharing* knowledge from
// the benefit of merely *having* a table.  The run report carries the
// aggregate probe/hit counters either way.
//
// Works with any engine exposing the core::Engine protocol; engines without
// the batch forms (acquire_batch/commit_batch) are driven one unit at a
// time through the single-item calls.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "runtime/worker_pool.hpp"
#include "search/concurrent_ttable.hpp"
#include "util/check.hpp"

namespace ers::runtime {

/// Per-worker scheduler observability, merged across workers into the run
/// report.  Times come from steady_clock; on a loaded machine lock_wait_ns
/// includes preemption of the lock holder, which is precisely the
/// interference a real shared heap suffers.
struct SchedulerStats {
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
  std::uint64_t batches = 0;       ///< non-empty acquire_batch calls
  std::uint64_t wakeups_issued = 0;  ///< targeted notify_one calls
  std::uint64_t sleeps = 0;          ///< times a worker parked on the cv
  /// Distribution views (obs/histogram.hpp), per-worker single-writer and
  /// merged exactly like the scalar counters.  batch_hist records every
  /// acquired batch's size (its count equals `batches`, so the scalar
  /// totals the benches read are untouched by the histogram migration).
  /// compute_hist records per-unit compute-span ns and commit_hist
  /// per-flush commit latency ns — both filled only while a trace session
  /// is attached, from the same clock readings the spans and compute_ns
  /// use, keeping the untraced hot path free of per-unit clock reads.
  obs::Histogram batch_hist;
  obs::Histogram compute_hist;
  obs::Histogram commit_hist;

  void record_batch(std::size_t size) {
    ++batches;
    batch_hist.record(size);
  }

  /// The one way per-worker blocks fold into an aggregate (the executor and
  /// every bench go through here, never field-by-field addition).
  void merge(const SchedulerStats& o) {
    lock_acquisitions += o.lock_acquisitions;
    lock_wait_ns += o.lock_wait_ns;
    lock_hold_ns += o.lock_hold_ns;
    compute_ns += o.compute_ns;
    units += o.units;
    batches += o.batches;
    wakeups_issued += o.wakeups_issued;
    sleeps += o.sleeps;
    batch_hist.merge(o.batch_hist);
    compute_hist.merge(o.compute_hist);
    commit_hist.merge(o.commit_hist);
  }

  [[nodiscard]] double mean_batch_size() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(units) /
                              static_cast<double>(batches);
  }
};

struct ThreadRunReport {
  std::uint64_t units = 0;
  int threads = 0;
  std::uint64_t tt_probes = 0;  ///< table probes across all workers
  std::uint64_t tt_hits = 0;    ///< validated, depth-covering hits
  std::uint64_t elapsed_ns = 0;  ///< wall time of the run() call
  SchedulerStats sched;          ///< aggregated across workers + engine locks
  /// Node-storage occupancy at the end of the run (engines exposing
  /// mem_stats(); zero otherwise) — arena/slab bytes and cold-record
  /// reclamation totals (DESIGN.md §15).
  core::EngineMemStats mem;
  /// Wasted-work attribution ledger (engines exposing waste_stats(); zero
  /// otherwise).  Unit counts are always exact; compute_ns is populated
  /// only on traced runs — untraced thread workers never read the clock,
  /// so they stamp 0 ns per unit (DESIGN.md §16).
  core::EngineWasteStats waste;

  [[nodiscard]] double tt_hit_rate() const noexcept {
    return tt_probes == 0
               ? 0.0
               : static_cast<double>(tt_hits) / static_cast<double>(tt_probes);
  }
  /// Fraction of total worker-time spent blocked on the heap lock — the
  /// contention number batching exists to shrink.
  [[nodiscard]] double lock_wait_share() const noexcept {
    const double total = static_cast<double>(elapsed_ns) *
                         static_cast<double>(threads);
    return total > 0 ? static_cast<double>(sched.lock_wait_ns) / total : 0.0;
  }
  /// Fraction of total worker-time spent *inside* engine lock sections.
  [[nodiscard]] double lock_hold_share() const noexcept {
    const double total = static_cast<double>(elapsed_ns) *
                         static_cast<double>(threads);
    return total > 0 ? static_cast<double>(sched.lock_hold_ns) / total : 0.0;
  }
};

template <typename EngineT>
class ThreadExecutor {
 public:
  explicit ThreadExecutor(int threads) : threads_(threads) {
    ERS_CHECK(threads >= 1);
  }

  /// Units a worker pulls per engine heap access (its local run-buffer
  /// size).  1 reproduces the unbatched scheduler exactly.
  ThreadExecutor& with_batch_size(int k) noexcept {
    ERS_CHECK(k >= 1);
    batch_size_ = k;
    return *this;
  }

  /// Bench control: give each worker a private ConcurrentTranspositionTable
  /// of 2^size_log2 slots, overriding the engine's shared table for the
  /// compute phase.  Tables live for one run() and are then discarded.
  ThreadExecutor& use_per_thread_tables(int size_log2) noexcept {
    per_thread_table_log2_ = size_log2;
    return *this;
  }

  /// Attach a trace session: every worker records its scheduling events
  /// (compute spans, batches, sleeps, wakeups) into its own ring,
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

    if constexpr (!obs::kTracingEnabled) trace_ = nullptr;
    if (trace_ != nullptr) trace_->ensure_workers(threads_);

    // Units acquired but not yet committed (includes items in the workers'
    // run and completion buffers).  Acquirers *pre-claim* their
    // batch — add k before the acquire, give back the shortfall after — so
    // a peer can never observe "no queued work and nothing in flight" while
    // an acquire that will succeed is mid-flight (the stall check below
    // would misfire otherwise).
    std::atomic<int> in_flight{0};
    // Commit epoch: bumped once per applied commit, after the engine has
    // applied it and before the committer drops in_flight.  A dry worker
    // reads it before its pre-claim and declares a stall only if
    // in_flight == 0 *and* the epoch has not moved: a peer's commit landing
    // between the missed acquire and the in_flight read can publish new
    // work and then drop in_flight to 0, which is progress, not a stall.
    std::atomic<std::uint64_t> commit_epoch{0};
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

    std::vector<std::unique_ptr<ConcurrentTranspositionTable>> tables;
    if (per_thread_table_log2_ >= 0) {
      tables.reserve(static_cast<std::size_t>(threads_));
      for (int i = 0; i < threads_; ++i)
        tables.push_back(std::make_unique<ConcurrentTranspositionTable>(
            per_thread_table_log2_));
    }

    const std::size_t k = static_cast<std::size_t>(batch_size_);

    // Park until work plausibly exists again.  The predicate also fires on
    // in_flight == 0 so that a scheduling bug (work leaked with nothing in
    // flight) wakes everyone into the stall check instead of deadlocking.
    auto park = [&](SchedulerStats& st, obs::Tracer* tr) {
      std::unique_lock<std::mutex> lk(wake_mu);
      auto ready = [&] {
        return engine.done() || failed.load() || in_flight.load() == 0 ||
               engine.queued_count() > 0;
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

    auto report_stall = [&](int index) {
      std::fprintf(stderr,
                   "ThreadExecutor stall: no queued work, 0 units in "
                   "flight, engine not done (worker %d, %d threads, "
                   "batch %d).  Unfinished nodes:\n",
                   index, threads_, batch_size_);
      engine.debug_dump_unfinished(stderr);
      failed.store(true);
    };

    // --- the worker loop ----------------------------------------------------
    // Flush completions, acquire a batch, compute it, repeat.  All engine
    // synchronization happens inside the engine: every acquire and every
    // commit takes its one lock.
    auto work_loop = [&](int index) {
      SchedulerStats& st = stats[static_cast<std::size_t>(index)];
      obs::Tracer* tr = trace_ == nullptr ? nullptr : &trace_->worker(index);
      obs::TraceSession::set_thread_tracer(tr);
      std::vector<ItemT> run_buf;
      std::vector<EntryT> done_buf;
      run_buf.reserve(k);
      done_buf.reserve(k);
      // Recycled compute-result buffers: committed entries donate their
      // results (whose child vectors keep capacity — the engine copies
      // positions out, never moves the buffers) back to a spare pool, so
      // steady-state expansion computes into warm vectors instead of
      // allocating fresh ones per unit.
      std::vector<ResultT> spare;
      spare.reserve(kSpareResults);
      auto take_spare = [&]() -> ResultT {
        if (spare.empty()) return ResultT{};
        ResultT r = std::move(spare.back());
        spare.pop_back();
        return r;
      };
      auto harvest = [&](std::vector<EntryT>& buf) {
        for (EntryT& e : buf)
          if (spare.size() < kSpareResults) spare.push_back(std::move(e.result));
      };
      int spins = 0;

      for (;;) {
        // --- flush completions ---------------------------------------------
        if (!done_buf.empty()) {
          if (tr != nullptr) {
            tr->instant(obs::EventKind::kCommitBatch, trace_->now_ns(),
                        obs::kNoTraceNode,
                        static_cast<std::uint32_t>(done_buf.size()));
            const auto f0 = Clock::now();
            commit_all(engine, done_buf);
            st.commit_hist.record(ns(f0, Clock::now()));
          } else {
            commit_all(engine, done_buf);
          }
          st.units += done_buf.size();
          commit_epoch.fetch_add(1);
          in_flight.fetch_sub(static_cast<int>(done_buf.size()));
          harvest(done_buf);
          done_buf.clear();
        }
        if (engine.done() || failed.load()) return broadcast_exit();

        // --- acquire the next batch ---------------------------------------
        const std::uint64_t epoch = commit_epoch.load();
        in_flight.fetch_add(static_cast<int>(k));  // pre-claim (see above)
        const std::size_t got = acquire_into(engine, k, run_buf);
        if (got < k) in_flight.fetch_sub(static_cast<int>(k - got));
        if (got == 0) {
          // acquire() itself can finish the search (pop-time cutoffs can
          // combine all the way to the root); re-check before stalling.
          if (engine.done()) return broadcast_exit();
          if (in_flight.load() == 0) {
            if (commit_epoch.load() != epoch) continue;  // retry the acquire
            report_stall(index);
            return broadcast_exit();
          }
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
        st.record_batch(got);
        if (tr != nullptr)
          tr->instant(obs::EventKind::kAcquireBatch, trace_->now_ns(),
                      node_of(run_buf.front()),
                      static_cast<std::uint32_t>(got));
        wake_for(st, tr);

        // --- parallel section: compute the whole batch, no locks held -----
        for (ItemT& item : run_buf) {
          ResultT result = take_spare();
          if (tr == nullptr) {
            compute_item_into(engine, item, index, tables, result);
            done_buf.push_back(EntryT{item, std::move(result)});
            continue;
          }
          const auto c0 = Clock::now();
          compute_item_into(engine, item, index, tables, result);
          const auto c1 = Clock::now();
          const std::uint64_t cns = ns(c0, c1);
          st.compute_ns += cns;
          st.compute_hist.record(cns);
          stamp_compute_ns(result, cns);
          tr->span(obs::EventKind::kComputeSpan, trace_->to_ns(c0),
                   trace_->to_ns(c1), node_of(item));
          trace_tt(*tr, trace_->to_ns(c1), node_of(item), result);
          done_buf.push_back(EntryT{item, std::move(result)});
        }
        run_buf.clear();
      }
    };

    // A worker that throws leaves its in-flight units uncommitted, and its
    // peers would park on them forever: send them home, then let
    // run_on_workers rethrow in the caller once every worker has returned.
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
    ERS_CHECK(!failed.load() && "problem-heap engine stalled");
    ERS_CHECK(engine.done());

    ThreadRunReport report;
    report.threads = threads_;
    report.elapsed_ns = ns(run_start, Clock::now());
    for (const SchedulerStats& st : stats) report.sched.merge(st);
    report.units = report.sched.units;
    // Fold the engine's lock accounting into the aggregate the benches
    // read.
    if constexpr (requires { engine.lock_stats(); }) {
      const auto ls = engine.lock_stats();
      report.sched.lock_acquisitions += ls.acquisitions;
      report.sched.lock_wait_ns += ls.wait_ns;
      report.sched.lock_hold_ns += ls.hold_ns;
    }
    if constexpr (requires { engine.stats().search.tt_probes; }) {
      report.tt_probes = engine.stats().search.tt_probes;
      report.tt_hits = engine.stats().search.tt_hits;
    }
    // Node-storage occupancy snapshot (engines with two-tier storage).
    if constexpr (requires { engine.mem_stats(); })
      report.mem = engine.mem_stats();
    if constexpr (requires { engine.waste_stats(); })
      report.waste = engine.waste_stats();
    return report;
  }

 private:
  using ItemT = std::decay_t<decltype(*std::declval<EngineT&>().acquire())>;
  using ResultT = decltype(std::declval<EngineT&>().compute(
      std::declval<const ItemT&>()));
  /// Completion-buffer entry: the engine's own, so the buffer can be
  /// handed to commit_batch as-is.
  using EntryT = typename EngineT::CommitEntry;

  /// Yield-retry rounds a dry worker donates its timeslice through before
  /// parking on the condition variable (a futex sleep plus wakeup costs two
  /// syscalls; work is usually released within a commit or two).
  static constexpr int kDryYieldRounds = 16;
  /// Cap on a worker's recycled compute-result pool.  Bounds the warm
  /// capacity a worker retains to a small multiple of its batch size.
  static constexpr std::size_t kSpareResults = 64;

  [[nodiscard]] static std::uint64_t ns(
      std::chrono::steady_clock::time_point a,
      std::chrono::steady_clock::time_point b) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }

  /// Stamp the executor-measured compute duration onto results that carry
  /// one (core::ComputeResult::compute_ns); the waste ledger charges this
  /// exact figure when the unit's subtree is later cancelled.  No-op for
  /// engines whose result type has no such field.
  template <typename Result>
  static void stamp_compute_ns(Result& r, std::uint64_t v) noexcept {
    if constexpr (requires { r.compute_ns; }) r.compute_ns = v;
  }

  template <typename E>
  static std::size_t acquire_into(E& engine, std::size_t k,
                                  std::vector<ItemT>& out) {
    if constexpr (requires { engine.acquire_batch(k, out); }) {
      return engine.acquire_batch(k, out);
    } else {
      std::size_t got = 0;
      while (got < k) {
        auto item = engine.acquire();
        if (!item) break;
        out.push_back(*item);
        ++got;
      }
      return got;
    }
  }

  /// Commit the completion buffer: one commit_batch call where the engine
  /// has the batch form, unit by unit otherwise.
  template <typename E>
  static void commit_all(E& engine, std::vector<EntryT>& buf) {
    if constexpr (requires { engine.commit_batch(std::span<EntryT>(buf)); }) {
      engine.commit_batch(std::span<EntryT>(buf));
    } else {
      for (EntryT& e : buf) engine.commit(e.item, std::move(e.result));
    }
  }

  /// Engine node id of a work item, for trace events; kNoTraceNode for
  /// engines whose items carry no node id.
  template <typename Item>
  [[nodiscard]] static std::uint32_t node_of(const Item& item) noexcept {
    if constexpr (requires { item.node; })
      return static_cast<std::uint32_t>(item.node);
    else
      return obs::kNoTraceNode;
  }

  /// Per-unit transposition-table traffic as trace instants, from the
  /// compute result's own counters (compute runs outside every lock, so the
  /// worker's ring — not the engine's — must carry these).
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
      (void)tr; (void)ts; (void)node; (void)r;
    }
  }

  /// Heavy phase dispatch: engines that accept an explicit table get the
  /// worker's private one when per-thread tables are enabled.
  template <typename Item, typename Tables>
  static auto compute_item(EngineT& engine, const Item& item, int index,
                           Tables& tables) {
    if constexpr (requires {
                    engine.compute(
                        item, static_cast<ConcurrentTranspositionTable*>(nullptr));
                  }) {
      if (!tables.empty())
        return engine.compute(item, tables[static_cast<std::size_t>(index)].get());
    }
    return engine.compute(item);
  }

  /// In-place variant: compute into a recycled result so engines exposing
  /// compute_into reuse the buffer's child-vector capacity (zero
  /// allocations on the steady-state expansion path).  Engines without it
  /// fall back to the by-value compute.
  template <typename Item, typename Tables, typename Result>
  static void compute_item_into(EngineT& engine, const Item& item, int index,
                                Tables& tables, Result& out) {
    if constexpr (requires {
                    engine.compute_into(
                        item, static_cast<ConcurrentTranspositionTable*>(nullptr),
                        out);
                  }) {
      if (!tables.empty()) {
        engine.compute_into(item, tables[static_cast<std::size_t>(index)].get(),
                            out);
        return;
      }
    }
    if constexpr (requires { engine.compute_into(item, out); })
      engine.compute_into(item, out);
    else
      out = compute_item(engine, item, index, tables);
  }

  int threads_;
  int batch_size_ = 1;
  int per_thread_table_log2_ = -1;  ///< < 0: use the engine's configuration
  obs::TraceSession* trace_ = nullptr;  ///< not owned; null = untraced
};

}  // namespace ers::runtime
