#pragma once
// Low-overhead event tracing for the search executors (DESIGN.md §11).
//
// Every worker (OS thread in the thread runtime, virtual processor in the
// simulator) owns a fixed-capacity ring of plain-struct TraceEvents and
// appends to it with no synchronization whatsoever: a Tracer is
// single-producer by construction, and buffers are only merged after the
// workers have returned from the run (thread runtime) or on the single
// simulator thread.
// The engine gets one extra tracer of its own, written only under the
// engine's lock (so by one thread at a time), for the events only the
// scheduling state machine can see (speculative promotions, pop-time
// cancellations, unit commits).
//
// A full ring drops new events and counts the drops instead of resizing or
// overwriting — the record stays a prefix of the truth and consumers can
// state their tolerance ("totals agree to within drop tolerance").
//
// Timestamps are nanoseconds from the session's epoch.  The thread runtime
// stamps with steady_clock; the simulator stamps with its virtual clock
// (one simulated cost unit = 1 "ns"), so a simulated and a real run of the
// same tree emit the *same* event schema and open side by side in one
// Perfetto viewer (trace_writer.hpp).
//
// Compile-time kill switch: configuring with -DERS_TRACING=OFF defines
// ERS_TRACING_DISABLED, which turns every record call into an empty inline
// and allocates no buffers — the executors' hot paths keep only a constant
// branch on a pointer that the optimizer removes (kTracingEnabled is
// constexpr false).

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace ers::obs {

#if defined(ERS_TRACING_DISABLED)
inline constexpr bool kTracingEnabled = false;
#else
inline constexpr bool kTracingEnabled = true;
#endif

/// Sentinel for events not tied to an engine node.
inline constexpr std::uint32_t kNoTraceNode = 0xffffffffu;

/// One schema for both executors.  Span kinds carry a duration; instants
/// have dur == 0.  The `arg` meaning is per kind (see event_name cases).
enum class EventKind : std::uint8_t {
  // --- spans (worker timeline) -------------------------------------------
  kComputeSpan,   ///< one work unit's heavy phase; node = engine node id
  kLockWaitSpan,  ///< blocked entering the serialized heap section
  kLockHoldSpan,  ///< inside the serialized heap section
  kSleepSpan,     ///< parked on the cv (thread) / starving (sim)
  // --- scheduling instants -----------------------------------------------
  kWakeup,        ///< arg = notify_one calls issued
  kTtProbe,       ///< arg = table probes performed by one unit's compute
  kTtHit,         ///< arg = validated table hits in one unit's compute
  // --- engine instants (written under the engine lock) -------------------
  kSpecSpawn,   ///< speculative/mandatory promotion; node = child, arg = parent
  kSpecCancel,  ///< queued work cancelled; arg: 0 = dead queue-entry drop,
                ///< 1 = pop-time cutoff on the node itself, 2 = subtree
                ///< killed by a bound change, 3 = subtree killed by sibling
                ///< resolution (2/3: node = the cancelled subtree's root,
                ///< matching the engine waste ledger's kill charges)
  kUnitCommit,  ///< unit committed; node = node id, arg = parent node id,
                ///< dur = executor-measured compute ns (waste reconciliation)
  // --- ABDADA two-phase iteration (DESIGN.md §14) --------------------------
  kAbdadaDefer,    ///< younger sibling skipped (busy elsewhere); arg = ply
  kAbdadaRevisit,  ///< deferred move searched in phase two; arg = ply
};
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kAbdadaRevisit) + 1;

/// Stable display/schema name of a kind (the Perfetto event `name`).
[[nodiscard]] constexpr const char* event_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kComputeSpan: return "compute";
    case EventKind::kLockWaitSpan: return "lock_wait";
    case EventKind::kLockHoldSpan: return "lock_hold";
    case EventKind::kSleepSpan: return "sleep";
    case EventKind::kWakeup: return "wakeup";
    case EventKind::kTtProbe: return "tt_probe";
    case EventKind::kTtHit: return "tt_hit";
    case EventKind::kSpecSpawn: return "spec_spawn";
    case EventKind::kSpecCancel: return "spec_cancel";
    case EventKind::kUnitCommit: return "unit_commit";
    case EventKind::kAbdadaDefer: return "abdada_defer";
    case EventKind::kAbdadaRevisit: return "abdada_revisit";
  }
  return "unknown";
}

[[nodiscard]] constexpr bool is_span(EventKind k) noexcept {
  return k == EventKind::kComputeSpan || k == EventKind::kLockWaitSpan ||
         k == EventKind::kLockHoldSpan || k == EventKind::kSleepSpan;
}

/// Plain 32-byte event; written by exactly one producer, read after join.
struct TraceEvent {
  std::uint64_t ts = 0;   ///< ns since session epoch (steady or virtual)
  std::uint64_t dur = 0;  ///< span length in ns; 0 for instants
  std::uint32_t node = kNoTraceNode;  ///< engine node id, if any
  std::uint32_t arg = 0;              ///< kind-specific payload
  std::uint16_t worker = 0;           ///< emitting worker (tid in the trace)
  EventKind kind = EventKind::kComputeSpan;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Fixed-capacity single-producer event ring.  record() is wait-free: one
/// bounds check and one struct store; a full buffer counts the drop and
/// keeps the existing prefix.
class Tracer {
 public:
  Tracer(std::uint16_t worker, std::size_t capacity) : worker_(worker) {
    if constexpr (kTracingEnabled) buf_.reserve(capacity);
    capacity_ = kTracingEnabled ? capacity : 0;
  }

  /// The engine's tracer is written by whichever worker holds the engine
  /// lock; the simulator re-points it before driving the engine.
  void set_worker(std::uint16_t w) noexcept { worker_ = w; }
  [[nodiscard]] std::uint16_t worker() const noexcept { return worker_; }

  void record(EventKind kind, std::uint64_t ts, std::uint64_t dur,
              std::uint32_t node = kNoTraceNode,
              std::uint32_t arg = 0) noexcept {
    if constexpr (!kTracingEnabled) {
      (void)kind; (void)ts; (void)dur; (void)node; (void)arg;
      return;
    }
    if (buf_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    buf_.push_back(TraceEvent{ts, dur, node, arg, worker_, kind});
  }

  void span(EventKind kind, std::uint64_t from, std::uint64_t to,
            std::uint32_t node = kNoTraceNode,
            std::uint32_t arg = 0) noexcept {
    record(kind, from, to >= from ? to - from : 0, node, arg);
  }

  void instant(EventKind kind, std::uint64_t ts,
               std::uint32_t node = kNoTraceNode,
               std::uint32_t arg = 0) noexcept {
    record(kind, ts, 0, node, arg);
  }

  [[nodiscard]] std::span<const TraceEvent> events() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  void clear() noexcept {
    buf_.clear();
    dropped_ = 0;
  }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint16_t worker_;
};

/// One traced run: per-worker tracers plus the engine tracer, sharing an
/// epoch.  The thread runtime stamps events with now_ns() (steady_clock
/// since construction); the simulator switches the session to its virtual
/// clock and advances it explicitly, so engine hooks — which know nothing
/// about who drives them — always stamp with session time.
class TraceSession {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceSession(int workers = 0,
                        std::size_t capacity_per_worker = kDefaultCapacity)
      : capacity_(capacity_per_worker),
        engine_tracer_(kEngineWorker, capacity_per_worker),
        epoch_(std::chrono::steady_clock::now()) {
    ensure_workers(workers);
  }

  /// Grow (never shrink) the per-worker tracer set; executors call this
  /// with their worker count before the run.
  void ensure_workers(int workers) {
    while (workers_.size() < static_cast<std::size_t>(workers))
      workers_.push_back(std::make_unique<Tracer>(
          static_cast<std::uint16_t>(workers_.size()), capacity_));
  }

  [[nodiscard]] Tracer& worker(int i) {
    ERS_CHECK(i >= 0 && static_cast<std::size_t>(i) < workers_.size());
    return *workers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const Tracer& worker(int i) const {
    ERS_CHECK(i >= 0 && static_cast<std::size_t>(i) < workers_.size());
    return *workers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int worker_count() const noexcept {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] Tracer& engine_tracer() noexcept { return engine_tracer_; }
  [[nodiscard]] const Tracer& engine_tracer() const noexcept {
    return engine_tracer_;
  }

  /// The engine tracer's events are attributed to the simulator's current
  /// virtual worker, which the simulator re-points before driving
  /// acquire/commit.  (The thread runtime leaves the attribution at
  /// kEngineWorker: it does not re-point the tracer at every lock handoff.)
  void set_current_worker(int w) noexcept {
    engine_tracer_.set_worker(static_cast<std::uint16_t>(w));
  }

  /// Thread-local tracer of the calling worker, so engine-internal lock
  /// instrumentation can emit wait/hold spans onto the right worker track
  /// without threading a tracer through every protocol call.  Null (the
  /// default, and always for the single-threaded simulator, which models
  /// lock time in its cost model instead) suppresses the spans; the
  /// thread executor sets it at worker start and clears it at exit.
  static void set_thread_tracer(Tracer* t) noexcept {
    if constexpr (kTracingEnabled) tls_worker_tracer_ = t;
  }
  [[nodiscard]] static Tracer* thread_tracer() noexcept {
    if constexpr (kTracingEnabled) return tls_worker_tracer_;
    return nullptr;
  }

  // --- clock --------------------------------------------------------------

  /// Switch to the simulator's virtual clock: now_ns() returns the last
  /// value passed to set_virtual_now() instead of elapsed steady time.
  void use_virtual_clock() noexcept { virtual_clock_ = true; }
  [[nodiscard]] bool virtual_clock() const noexcept { return virtual_clock_; }
  void set_virtual_now(std::uint64_t t) noexcept { virtual_now_ = t; }

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    if (virtual_clock_) return virtual_now_;
    return to_ns(std::chrono::steady_clock::now());
  }

  /// Fold an already-taken steady_clock reading onto the session epoch —
  /// executors reuse the timestamps their SchedulerStats arithmetic takes,
  /// so traced spans and stats totals agree exactly, not approximately.
  [[nodiscard]] std::uint64_t to_ns(
      std::chrono::steady_clock::time_point t) const noexcept {
    return t <= epoch_
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t - epoch_)
                         .count());
  }

  // --- consumption --------------------------------------------------------

  /// All events — workers' rings then the engine ring — merged and sorted
  /// by (ts, worker, kind) into one stable stream.  Only meaningful after
  /// the traced run finished (every thread-executor worker has returned).
  [[nodiscard]] std::vector<TraceEvent> merged() const {
    std::vector<TraceEvent> out;
    std::size_t total = engine_tracer_.size();
    for (const auto& w : workers_) total += w->size();
    out.reserve(total);
    for (const auto& w : workers_)
      out.insert(out.end(), w->events().begin(), w->events().end());
    out.insert(out.end(), engine_tracer_.events().begin(),
               engine_tracer_.events().end());
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.ts != b.ts) return a.ts < b.ts;
                       if (a.worker != b.worker) return a.worker < b.worker;
                       return static_cast<int>(a.kind) <
                              static_cast<int>(b.kind);
                     });
    return out;
  }

  /// Events dropped across every ring — the "drop tolerance" consumers
  /// must quote when comparing trace totals with executor aggregates.
  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = engine_tracer_.dropped();
    for (const auto& w : workers_) n += w->dropped();
    return n;
  }

  void clear() {
    for (const auto& w : workers_) w->clear();
    engine_tracer_.clear();
  }

  /// The engine tracer's tid in the exported trace: one past the largest
  /// real worker id so it gets its own named track.
  static constexpr std::uint16_t kEngineWorker = 0xfffe;

 private:
  std::size_t capacity_;
  std::vector<std::unique_ptr<Tracer>> workers_;
  Tracer engine_tracer_;
  std::chrono::steady_clock::time_point epoch_;
  bool virtual_clock_ = false;
  std::uint64_t virtual_now_ = 0;
  inline static thread_local Tracer* tls_worker_tracer_ = nullptr;
};

}  // namespace ers::obs
