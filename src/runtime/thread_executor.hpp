#pragma once
// Shared-memory runtime: real std::thread workers driving a problem-heap
// engine (the counterpart of the paper's Sequent implementation).
//
// The engine is internally synchronized (per-shard locks plus a
// flat-combining commit path, DESIGN.md §12), so this executor holds no
// engine-wrapping mutex at all: acquires on different shards proceed
// concurrently, and a commit either rides a concurrent combiner or becomes
// the combiner itself inside the engine.  What remains up here is pure
// scheduling policy — local run queues, work stealing, targeted wakeups —
// plus a small wake mutex that exists only to park starving workers on a
// condition variable without lost wakeups.  The heavy compute phase — child
// generation and serial subtree searches — runs with no lock of any kind
// held, which is where the real parallelism lives.
//
// Batched scheduling (paper §6's contention remedy): each worker keeps a
// small local run buffer filled by one acquire_batch call and a local
// completion buffer flushed through one commit_batch call, so the engine's
// serialized sections are entered once per batch instead of twice per unit.
// Wakeups are targeted: a worker that commits or acquires work wakes only
// as many sleepers as there are units actually left on the queues (no
// notify_all thundering herd), and a starving worker spins briefly before
// sleeping so it can catch work released a few microseconds later without a
// futex round trip.  Every worker keeps a SchedulerStats block; the engine's
// own lock accounting (EngineLockStats) is folded into the aggregate after
// the join, so contention is measurable, not guessed (bench_scheduler
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
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "runtime/topology.hpp"
#include "search/concurrent_ttable.hpp"
#include "util/check.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ers::runtime {

/// Per-worker scheduler observability, merged across workers into the run
/// report.  Times come from steady_clock; on a loaded machine lock_wait_ns
/// includes preemption of the lock holder, which is precisely the
/// interference a real shared heap suffers.
struct SchedulerStats {
  /// Engine lock sections.  Workers no longer hold an executor-side engine
  /// mutex, so these three stay zero in the per-worker blocks and are
  /// populated by folding the engine's own EngineLockStats into the
  /// aggregate after the join (run() does this; benches read the totals
  /// exactly as before).
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
  // Work-stealing counters (sharded scheduler only; zero on the single-heap
  // path).  A steal attempt is one victim probe; a hit moved one unit from
  // a peer's local run queue; misses are attempts - hits.
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_hits = 0;
  /// Commit flushes this worker never had to apply itself: a concurrent
  /// combiner picked up the published record and applied it (the
  /// flat-combining path absorbed the contention the old deferred
  /// try_lock flush used to dodge).  Sharded scheduler only.
  std::uint64_t flush_deferrals = 0;
  /// Refills that fell through an empty home shard to the global scan.
  std::uint64_t global_refills = 0;

  /// Misses are derived, not stored.  Stats blocks can be merged in any
  /// order (a partially merged block may transiently carry hits from a
  /// worker whose attempts were not folded in yet), so clamp instead of
  /// letting the subtraction wrap to ~2^64.
  [[nodiscard]] std::uint64_t steal_misses() const noexcept {
    return steal_hits > steal_attempts ? 0 : steal_attempts - steal_hits;
  }
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
    steal_attempts += o.steal_attempts;
    steal_hits += o.steal_hits;
    flush_deferrals += o.flush_deferrals;
    global_refills += o.global_refills;
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
  int shards = 1;  ///< problem-heap shards the run was scheduled over
  std::uint64_t tt_probes = 0;  ///< table probes across all workers
  std::uint64_t tt_hits = 0;    ///< validated, depth-covering hits
  std::uint64_t elapsed_ns = 0;  ///< wall time of the run() call
  SchedulerStats sched;          ///< aggregated across workers + engine locks

  // Engine-internal lock accounting (per-shard lock sections plus the
  // flat-combining commit path), already folded into sched.lock_* above;
  // kept verbatim here for per-shard metrics export and the benches.
  std::vector<std::uint64_t> shard_lock_acquisitions;
  std::vector<std::uint64_t> shard_lock_wait_ns;
  std::vector<std::uint64_t> shard_lock_hold_ns;
  std::uint64_t combine_batches = 0;       ///< combiner drain rounds
  std::uint64_t combine_records = 0;       ///< publish records applied
  std::uint64_t combine_entries = 0;       ///< commit entries in those records
  std::uint64_t combine_peer_applied = 0;  ///< records applied by a peer combiner
  std::uint64_t combine_wait_ns = 0;       ///< publisher blocked time
  /// Frontier-truncation / epoch-publication counters (DESIGN.md §13).
  std::uint64_t truncated_records = 0;
  std::uint64_t frontier_continuations = 0;
  std::uint64_t root_publishes = 0;
  std::uint64_t root_publish_retries = 0;
  std::uint64_t root_validate_retries = 0;
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
  /// Fraction of total worker-time spent blocked on heap locks — the
  /// contention number batching and per-shard locking exist to shrink.
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
  /// (compute spans, steals, refills, sleeps, wakeups) into its own ring,
  /// stamped with steady-clock ns from the session epoch; the engine's lock
  /// wait/hold spans land on the same per-worker rings via the session's
  /// thread-local tracer, which each worker installs for its lifetime.
  /// The session must outlive run(); read it only after run() returns.
  /// Null (the default) keeps the untraced hot path: no clock reads, no
  /// stores.  Trace spans reuse the very timestamps the stats arithmetic
  /// takes, so per-worker trace totals and the run report agree exactly up
  /// to ring-buffer drops.
  ThreadExecutor& with_trace(obs::TraceSession* session) noexcept {
    trace_ = session;
    return *this;
  }

  /// Override the detected CPU topology (tests drive the placement logic
  /// on synthetic multi-node layouts).  The default — detect() at run() —
  /// reads sysfs and degenerates to round-robin on single-node machines.
  ThreadExecutor& with_topology(CpuTopology topo) {
    topology_ = std::move(topo);
    has_topology_ = true;
    return *this;
  }

  /// Pin each stealing worker to its planned CPU (Linux; no-op elsewhere).
  /// Off by default: pinning helps steady-state NUMA runs but hurts when
  /// the machine is shared, so it is an explicit opt-in.
  ThreadExecutor& with_pin_workers(bool pin) noexcept {
    pin_workers_ = pin;
    return *this;
  }

  /// Run the engine to completion on `threads_` workers; blocks until done.
  /// Engines exposing a sharded heap (shard_count() > 1) are driven by the
  /// work-stealing scheduler; everything else takes the single-heap path.
  ThreadRunReport run(EngineT& engine) {
    using Clock = std::chrono::steady_clock;
    const auto run_start = Clock::now();

    const std::size_t S = shard_count_of(engine);
    if constexpr (!obs::kTracingEnabled) trace_ = nullptr;
    if (trace_ != nullptr) trace_->ensure_workers(threads_);

    // Units acquired but not yet committed (includes items parked in local
    // run queues and completion buffers).  Acquirers *pre-claim* their
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

    // Per-worker local run queues (sharded scheduler only).  The owner pops
    // the front — its acquired priority order — while thieves take the
    // back (the entries the owner would reach last) under try_lock.  A
    // queue mutex is only ever taken with no other lock held.
    struct LocalQueue {
      std::mutex mu;
      std::deque<ItemT> items;
    };
    std::vector<std::unique_ptr<LocalQueue>> local;
    if (S > 1) {
      local.reserve(static_cast<std::size_t>(threads_));
      for (int i = 0; i < threads_; ++i)
        local.push_back(std::make_unique<LocalQueue>());
    }

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
               queued_estimate(engine) > 0;
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

    // Targeted wakeups: at most one sleeper per unit actually available
    // (`extra` covers units just parked in the caller's own local queue —
    // sleepers can steal those).  The empty wake_mu section pairs with the
    // sleeper's locked re-check (see above).
    auto wake_for = [&](std::size_t extra, SchedulerStats& st,
                        obs::Tracer* tr) {
      if (sleepers.load() <= 0) return;
      const std::size_t avail = queued_estimate(engine) + extra;
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
                   "batch %d, %zu shards).  Unfinished nodes:\n",
                   index, threads_, batch_size_, S);
      if constexpr (requires { engine.debug_dump_unfinished(stderr); })
        engine.debug_dump_unfinished(stderr);
      failed.store(true);
    };

    // --- single-heap scheduler ---------------------------------------------
    // Flush completions, acquire a batch, compute it, repeat.  All engine
    // synchronization happens inside the engine; at S == 1 every acquire
    // takes the one shard lock, reproducing the old one-mutex schedule.
    auto worker = [&](int index) {
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
        // --- flush completions (engine combines internally) ---------------
        if (!done_buf.empty()) {
          if (tr != nullptr) {
            tr->instant(obs::EventKind::kCommitBatch, trace_->now_ns(),
                        obs::kNoTraceNode,
                        static_cast<std::uint32_t>(done_buf.size()));
            const auto f0 = Clock::now();
            // The peer-applied signal is a stealing-path statistic; the
            // single-heap path keeps its steal-family counters at zero.
            (void)commit_all(engine, done_buf);
            st.commit_hist.record(ns(f0, Clock::now()));
          } else {
            (void)commit_all(engine, done_buf);
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
        wake_for(0, st, tr);

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

    // --- work-stealing scheduler (sharded heap) ----------------------------
    // Own local queue first, then bounded random victim probes, then the
    // engine: each worker refills its local run queue from its home shard
    // (falling back to a global scan so no shard is orphaned when
    // threads < shards), computes one unit at a time, and steals from a
    // random peer's queue when its own runs dry.  A home-shard refill takes
    // exactly one shard lock, so refills on different shards run
    // concurrently; commits publish to the flat-combining path, where a
    // contended commit rides a peer's combine round instead of convoying on
    // a lock (counted as a flush deferral).
    //
    // Homes are topology-aware (runtime/topology.hpp): workers on one NUMA
    // node draw their home shards from one contiguous group and probe
    // same-node victims first, so parent-routed refills and back-steals
    // stay on the node.  Single-node machines get the historical
    // round-robin `index % S` exactly.
    WorkerPlacement placement;
    std::vector<std::vector<int>> node_peers;  // per worker: same-node others
    if (S > 1) {
      placement = plan_worker_placement(
          threads_, S, has_topology_ ? topology_ : CpuTopology::detect());
      node_peers.resize(static_cast<std::size_t>(threads_));
      for (int i = 0; i < threads_; ++i)
        for (int j = 0; j < threads_; ++j)
          if (j != i && placement.node[static_cast<std::size_t>(j)] ==
                            placement.node[static_cast<std::size_t>(i)])
            node_peers[static_cast<std::size_t>(i)].push_back(j);
    }
    auto stealing_worker = [&](int index) {
      SchedulerStats& st = stats[static_cast<std::size_t>(index)];
      obs::Tracer* tr = trace_ == nullptr ? nullptr : &trace_->worker(index);
      obs::TraceSession::set_thread_tracer(tr);
      LocalQueue& mine = *local[static_cast<std::size_t>(index)];
      const std::size_t home =
          S > 1 ? placement.home_shard[static_cast<std::size_t>(index)]
                : static_cast<std::size_t>(index) % S;
#if defined(__linux__)
      if (pin_workers_ && S > 1 &&
          placement.cpu[static_cast<std::size_t>(index)] >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(
                    placement.cpu[static_cast<std::size_t>(index)]),
                &set);
        // Best-effort: a failed pin (cgroup mask, sandbox) just leaves the
        // worker floating; placement homes are still correct.
        (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      }
#endif
      const std::vector<int>* peers =
          S > 1 && !node_peers[static_cast<std::size_t>(index)].empty()
              ? &node_peers[static_cast<std::size_t>(index)]
              : nullptr;
      std::vector<EntryT> done_buf;
      std::vector<ItemT> refill_buf;
      done_buf.reserve(k);
      refill_buf.reserve(k);
      // Recycled compute-result buffers (see the single-heap worker): the
      // stealing path harvests from both the in-place commit and the
      // flat-combining reap, so deferred flushes recycle too.
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
      std::uint64_t rng =
          (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1)) | 1;
      int spins = 0;

      // Asynchronous commits: flush applies the completed batch in place
      // when the combine lock is free (try_commit_batch); when a peer
      // holds it, the batch is published as a flat-combining record and
      // the worker keeps computing while the record rides a later drain
      // round (counted as a flush deferral, the same
      // keep-working-through-a-contended-commit discipline the try_lock
      // scheduler had).  The entries and the PendingCommit handle are
      // referenced by the engine until some combiner applies the record,
      // so outstanding flushes park in `pending` (heap-stable) and are
      // reaped once their applied flag flips.  Records can apply out of
      // publish order (a concurrent drain may snapshot a later record's
      // shard list first), so reap scans the whole set.
      struct PendingFlush {
        std::vector<EntryT> entries;
        typename EngineT::PendingCommit pc;
      };
      std::deque<std::unique_ptr<PendingFlush>> pending;
      constexpr std::size_t kMaxPendingFlushes = 4;

      auto reap = [&] {
        for (auto it = pending.begin(); it != pending.end();) {
          if ((*it)->pc.applied.load(std::memory_order_acquire)) {
            st.units += (*it)->entries.size();
            commit_epoch.fetch_add(1);
            in_flight.fetch_sub(static_cast<int>((*it)->entries.size()));
            harvest((*it)->entries);
            it = pending.erase(it);
          } else {
            ++it;
          }
        }
      };

      // Blocking backstop: force a combine round until every outstanding
      // record of ours is applied.  The spin covers the window where a
      // peer's drain has snapshotted a record but not yet flipped its flag.
      // Must run before the worker returns — the engine holds pointers
      // into `pending` until application — and before parking, because a
      // sleeping publisher's unapplied record would otherwise hold
      // in_flight above zero with no one left to combine it.
      auto drain_pending = [&] {
        while (!pending.empty()) {
          engine.combine_published();
          reap();
          if (!pending.empty()) spin_pause();
        }
      };

      auto flush = [&] {
        if (done_buf.empty()) return;
        if (tr != nullptr)
          tr->instant(obs::EventKind::kCommitBatch, trace_->now_ns(),
                      obs::kNoTraceNode,
                      static_cast<std::uint32_t>(done_buf.size()));
        // Traced runs record the in-place commit latency (lock wait +
        // combine round).  Deferred publishes are excluded: their apply
        // rides a peer's drain, so there is no local latency to observe —
        // flush_deferrals already counts them.
        const auto f0 = tr != nullptr ? Clock::now() : Clock::time_point{};
        if (engine.try_commit_batch(std::span<EntryT>(done_buf))) {
          if (tr != nullptr) st.commit_hist.record(ns(f0, Clock::now()));
          st.units += done_buf.size();
          commit_epoch.fetch_add(1);
          in_flight.fetch_sub(static_cast<int>(done_buf.size()));
          harvest(done_buf);
          done_buf.clear();
          reap();  // our drain round may have applied earlier publishes
          return;
        }
        auto pf = std::make_unique<PendingFlush>();
        pf->entries.swap(done_buf);
        done_buf.reserve(k);
        engine.publish_commit(std::span<EntryT>(pf->entries), pf->pc);
        pending.push_back(std::move(pf));
        ++st.flush_deferrals;
        reap();
        // Bound the outstanding set so a worker that keeps losing the
        // combine race cannot accumulate unapplied records without limit.
        if (pending.size() >= kMaxPendingFlushes) drain_pending();
      };

      // Refill the local run queue: home shard first, global scan second.
      // Returns the number acquired.
      auto refill = [&]() -> std::size_t {
        refill_buf.clear();
        in_flight.fetch_add(static_cast<int>(k));  // pre-claim
        std::size_t got = acquire_shard_into(engine, home, k, refill_buf);
        bool global = false;
        if (got == 0) {
          got = acquire_into(engine, k, refill_buf);
          if (got > 0) {
            ++st.global_refills;
            global = true;
          }
        }
        if (got < k) in_flight.fetch_sub(static_cast<int>(k - got));
        if (got > 0) {
          if (tr != nullptr)
            tr->instant(
                global ? obs::EventKind::kRefillGlobal
                       : obs::EventKind::kRefillHome,
                trace_->now_ns(), node_of(refill_buf.front()),
                static_cast<std::uint32_t>(got),
                global ? obs::kNoTraceShard : static_cast<std::uint16_t>(home));
          st.record_batch(got);
          std::lock_guard<std::mutex> g(mine.mu);
          for (ItemT& it : refill_buf) mine.items.push_back(std::move(it));
        }
        return got;
      };

      for (;;) {
        // --- own queue first, then steal ----------------------------------
        std::optional<ItemT> item;
        {
          std::lock_guard<std::mutex> g(mine.mu);
          if (!mine.items.empty()) {
            item = std::move(mine.items.front());
            mine.items.pop_front();
          }
        }
        if (!item && threads_ > 1) {
          for (int probe = 0; probe < kStealProbes && !item; ++probe) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Topology bias: even probes pick a same-NUMA-node peer (local
            // steals keep the stolen unit's cache lines on-node); odd probes
            // stay uniformly random so remote queues still drain when a
            // whole node runs dry.
            const int victim =
                peers != nullptr && probe % 2 == 0
                    ? (*peers)[static_cast<std::size_t>(
                          rng % static_cast<std::uint64_t>(peers->size()))]
                    : static_cast<int>(rng %
                                       static_cast<std::uint64_t>(threads_));
            if (victim == index) continue;
            ++st.steal_attempts;
            if (tr != nullptr)
              tr->instant(obs::EventKind::kStealProbe, trace_->now_ns(),
                          obs::kNoTraceNode,
                          static_cast<std::uint32_t>(victim));
            LocalQueue& q = *local[static_cast<std::size_t>(victim)];
            std::unique_lock<std::mutex> g(q.mu, std::try_to_lock);
            if (!g.owns_lock() || q.items.empty()) {
              if (tr != nullptr)
                tr->instant(obs::EventKind::kStealMiss, trace_->now_ns(),
                            obs::kNoTraceNode,
                            static_cast<std::uint32_t>(victim));
              continue;
            }
            item = std::move(q.items.back());
            q.items.pop_back();
            ++st.steal_hits;
            // Steal feedback (DESIGN.md §17): tell engines that rank
            // speculation by steal pressure which shard just lost a unit
            // to a thief.  Detected structurally so executors keep working
            // against engines without the hook.
            if constexpr (requires { engine.note_steal(std::uint32_t{}); })
              engine.note_steal(node_of(*item));
            if (tr != nullptr)
              tr->instant(obs::EventKind::kStealHit, trace_->now_ns(),
                          node_of(*item), static_cast<std::uint32_t>(victim));
          }
        }
        if (item) {
          ResultT result = take_spare();
          if (tr == nullptr) {
            compute_item_into(engine, *item, index, tables, result);
            done_buf.push_back(EntryT{*item, std::move(result)});
          } else {
            const auto c0 = Clock::now();
            compute_item_into(engine, *item, index, tables, result);
            const auto c1 = Clock::now();
            const std::uint64_t cns = ns(c0, c1);
            st.compute_ns += cns;
            st.compute_hist.record(cns);
            stamp_compute_ns(result, cns);
            tr->span(obs::EventKind::kComputeSpan, trace_->to_ns(c0),
                     trace_->to_ns(c1), node_of(*item));
            trace_tt(*tr, trace_->to_ns(c1), node_of(*item), result);
            done_buf.push_back(EntryT{*item, std::move(result)});
          }
          if (done_buf.size() >= k) {
            flush();
            if (engine.done() || failed.load()) {
              drain_pending();
              return broadcast_exit();
            }
            wake_for(0, st, tr);
          }
          continue;
        }

        // --- dry: flush what we have, then refill -------------------------
        flush();
        if (engine.done() || failed.load()) {
          drain_pending();
          return broadcast_exit();
        }
        const std::uint64_t epoch = commit_epoch.load();
        const std::size_t got = refill();
        if (got == 0) {
          if (!pending.empty()) {
            // Applying our outstanding records may create the very work the
            // refill just missed — drain and retry before giving up.
            drain_pending();
            if (engine.done() || failed.load()) return broadcast_exit();
            continue;
          }
          if (engine.done()) return broadcast_exit();
          if (in_flight.load() == 0) {
            if (commit_epoch.load() != epoch) continue;  // retry the refill
            report_stall(index);
            return broadcast_exit();
          }
          if (spins < kDryYieldRounds) {
            ++spins;
            std::this_thread::yield();
            continue;
          }
          spins = 0;
          park(st, tr);
          continue;
        }
        spins = 0;
        // Wake one sleeper per unit still acquirable plus the surplus just
        // parked in our own queue (sleepers can steal those).
        wake_for(got - 1, st, tr);
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i) {
      if (S > 1)
        pool.emplace_back(stealing_worker, i);
      else
        pool.emplace_back(worker, i);
    }
    for (auto& t : pool) t.join();
    ERS_CHECK(!failed.load() && "problem-heap engine stalled");
    ERS_CHECK(engine.done());

    ThreadRunReport report;
    report.threads = threads_;
    report.shards = static_cast<int>(S);
    report.elapsed_ns = ns(run_start, Clock::now());
    for (const SchedulerStats& st : stats) report.sched.merge(st);
    report.units = report.sched.units;
    // Fold the engine's internal lock accounting into the aggregate the
    // benches read; keep the per-shard and combine breakdowns verbatim.
    if constexpr (requires { engine.lock_stats(); }) {
      const auto ls = engine.lock_stats();
      report.sched.lock_acquisitions += ls.total_acquisitions();
      report.sched.lock_wait_ns += ls.total_wait_ns();
      report.sched.lock_hold_ns += ls.total_hold_ns();
      report.shard_lock_acquisitions = ls.shard_acquisitions;
      report.shard_lock_wait_ns = ls.shard_wait_ns;
      report.shard_lock_hold_ns = ls.shard_hold_ns;
      report.combine_batches = ls.combine_batches;
      report.combine_records = ls.combine_records;
      report.combine_entries = ls.combine_entries;
      report.combine_peer_applied = ls.combine_peer_applied;
      report.combine_wait_ns = ls.combine_wait_ns;
      report.truncated_records = ls.truncated_records;
      report.frontier_continuations = ls.frontier_continuations;
      report.root_publishes = ls.root_publishes;
      report.root_publish_retries = ls.root_publish_retries;
      report.root_validate_retries = ls.root_validate_retries;
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
  /// Completion-buffer entry; matches EngineT::CommitEntry where the engine
  /// has one so the buffer can be handed to commit_batch as-is.
  struct FallbackEntry {
    ItemT item;
    ResultT result;
  };
  template <typename E, typename = void>
  struct EntryFor {
    using type = FallbackEntry;
  };
  template <typename E>
  struct EntryFor<E, std::void_t<typename E::CommitEntry>> {
    using type = typename E::CommitEntry;
  };
  using EntryT = typename EntryFor<EngineT>::type;

  /// Yield-retry rounds a dry worker donates its timeslice through before
  /// parking on the condition variable (a futex sleep plus wakeup costs two
  /// syscalls; work is usually released within a commit or two).
  static constexpr int kDryYieldRounds = 16;
  /// Victim probes per steal round; bounded so a starving worker falls
  /// through to the (blocking) refill path quickly when all queues are dry.
  static constexpr int kStealProbes = 4;
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

  static void spin_pause() noexcept {
    for (int i = 0; i < 64; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    }
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

  /// Commit the completion buffer; returns true when the engine reports a
  /// *peer* combiner applied the batch (flat-combining engines only; false
  /// for engines whose commit path returns void).
  template <typename E>
  static bool commit_all(E& engine, std::vector<EntryT>& buf) {
    if constexpr (requires { engine.commit_batch(std::span<EntryT>(buf)); }) {
      using R = decltype(engine.commit_batch(std::span<EntryT>(buf)));
      if constexpr (std::is_convertible_v<R, bool>) {
        return engine.commit_batch(std::span<EntryT>(buf));
      } else {
        engine.commit_batch(std::span<EntryT>(buf));
        return false;
      }
    } else {
      for (EntryT& e : buf) engine.commit(e.item, std::move(e.result));
      return false;
    }
  }

  /// Shards the engine's heap is partitioned into (1 for engines without
  /// the sharded protocol) — selects the scheduler in run().
  template <typename E>
  [[nodiscard]] static std::size_t shard_count_of(const E& engine) {
    if constexpr (requires { engine.shard_count(); })
      return engine.shard_count();
    else
      return 1;
  }

  /// Pull up to k items from one shard; engines without the sharded batch
  /// form fall back to the global acquire (same semantics, no locality).
  template <typename E>
  static std::size_t acquire_shard_into(E& engine, std::size_t shard,
                                        std::size_t k,
                                        std::vector<ItemT>& out) {
    if constexpr (requires { engine.acquire_batch_shard(shard, k, out); })
      return engine.acquire_batch_shard(shard, k, out);
    else
      return acquire_into(engine, k, out);
  }

  template <typename E>
  static std::size_t queued_estimate(const E& engine) {
    if constexpr (requires { engine.queued_count(); })
      return engine.queued_count();
    else
      return 1;  // no count available: wake one sleeper at a time
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
  CpuTopology topology_;        ///< placement input when has_topology_
  bool has_topology_ = false;   ///< false: detect() at run() time
  bool pin_workers_ = false;    ///< pin each worker to its planned CPU
};

}  // namespace ers::runtime
