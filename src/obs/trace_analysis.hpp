#pragma once
// Offline analysis of a traced run (DESIGN.md §11): turns the flat event
// stream — straight from a TraceSession, or loaded back from a Perfetto
// trace file — into its summaries:
//
//   * per-worker timelines: busy / lock-wait / lock-hold / starve totals,
//     units computed, utilization over the trace extent;
//   * scheduling-event counts and the replayed speculation-waste ledger;
//   * the critical path through the unit dependency graph, rebuilt from
//     kUnitCommit instants (node, arg = parent) and costed with the
//     kComputeSpan durations: cost(n) = dur(n) + max over children cost(c).
//     The makespan cannot beat the critical path no matter how many
//     workers are added — the analyzer prints both so the gap (scheduling
//     + serialization loss) is a number, not a feeling.
//
// Everything here works identically on real (steady-clock ns) and
// simulated (virtual cost unit) traces, because both executors emit the
// same schema.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json_read.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace ers::obs {

/// event_name's inverse; false when `name` is no trace event (metadata
/// rows and foreign events are skipped, not errors).
[[nodiscard]] inline bool kind_from_name(const std::string& name,
                                         EventKind& out) noexcept {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == event_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

/// Re-read a Perfetto trace (the trace_writer format) into TraceEvents.
/// Only events whose name maps onto the schema are kept.
inline bool parse_perfetto(const std::string& json,
                           std::vector<TraceEvent>& out) {
  JsonValue root;
  if (!parse_json(json, root)) return false;
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;
  for (const JsonValue& e : events->items) {
    if (!e.is_object()) continue;
    const JsonValue* name = e.find("name");
    const JsonValue* ts = e.find("ts");
    const JsonValue* tid = e.find("tid");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        tid == nullptr)
      continue;
    EventKind kind{};
    if (!kind_from_name(name->text, kind)) continue;  // metadata etc.
    TraceEvent ev;
    ev.kind = kind;
    ev.ts = us_token_to_ns(ts->text);
    if (const JsonValue* d = e.find("dur"); d != nullptr)
      ev.dur = us_token_to_ns(d->text);
    ev.worker = static_cast<std::uint16_t>(tid->as_uint64());
    if (const JsonValue* args = e.find("args"); args != nullptr) {
      if (const JsonValue* n = args->find("node"); n != nullptr)
        ev.node = static_cast<std::uint32_t>(n->as_uint64());
      if (const JsonValue* a = args->find("arg"); a != nullptr)
        ev.arg = static_cast<std::uint32_t>(a->as_uint64());
      // Instant payload duration (exact ns; see trace_writer.hpp).
      if (const JsonValue* d = args->find("dur_ns"); d != nullptr)
        ev.dur = d->as_uint64();
    }
    out.push_back(ev);
  }
  return true;
}

inline bool load_trace_file(const std::string& path,
                            std::vector<TraceEvent>& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  return parse_perfetto(text, out);
}

/// Aggregated view of one worker's track.
struct WorkerTimeline {
  int worker = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t lock_wait_ns = 0;
  std::uint64_t lock_hold_ns = 0;
  std::uint64_t sleep_ns = 0;  ///< parked / starving
  std::uint64_t units = 0;     ///< compute spans on this track
  std::uint64_t first_ts = 0;  ///< earliest event start
  std::uint64_t last_ts = 0;   ///< latest span end / instant

  [[nodiscard]] std::uint64_t extent() const noexcept {
    return last_ts > first_ts ? last_ts - first_ts : 0;
  }
  /// Share of the track extent spent computing.
  [[nodiscard]] double utilization() const noexcept {
    const std::uint64_t e = extent();
    return e > 0 ? static_cast<double>(compute_ns) / static_cast<double>(e)
                 : 0.0;
  }
};

/// One hop of the critical path, root-first.
struct CriticalHop {
  std::uint32_t node = kNoTraceNode;
  std::uint64_t compute_ns = 0;
};

/// Waste attributed to one cancel cause, rebuilt from the event stream.
struct WasteCauseTotal {
  std::uint64_t cancels = 0;     ///< cancelled subtree roots (kSpecCancel)
  std::uint64_t units = 0;       ///< commits attributed inside those subtrees
  std::uint64_t compute_ns = 0;  ///< their executor-measured compute time
};

/// Speculation-waste section (DESIGN.md §16): the trace-side replay of the
/// engine's waste ledger.  Each kUnitCommit carries the unit's measured
/// compute duration; each kSpecCancel (arg 2 = bound change, arg 3 =
/// sibling resolution) marks a cancelled subtree root.  A commit is wasted
/// iff some ancestor (self included) was cancelled, and it is charged to
/// the *nearest* such ancestor — exactly the ledger's charge rule — so
/// these totals reconcile bit-for-bit with Engine::waste_stats() unit
/// counts (and with its ns totals wherever the executor stamps real
/// durations).  Event order never matters: attribution only consults the
/// commit-parent tree and the cancel set.
struct SpeculationWaste {
  WasteCauseTotal bound_change;        ///< kSpecCancel arg = 2
  WasteCauseTotal sibling_resolution;  ///< kSpecCancel arg = 3
  std::uint64_t dead_drops = 0;   ///< arg = 0: dead queue entries (no compute)
  std::uint64_t pop_cutoffs = 0;  ///< arg = 1: pop-time cutoffs (not waste)

  [[nodiscard]] std::uint64_t total_cancels() const noexcept {
    return bound_change.cancels + sibling_resolution.cancels + dead_drops;
  }
  [[nodiscard]] std::uint64_t total_units() const noexcept {
    return bound_change.units + sibling_resolution.units;
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return bound_change.compute_ns + sibling_resolution.compute_ns;
  }
};

struct TraceReport {
  std::vector<WorkerTimeline> workers;  ///< real worker tracks, id order
  /// Event count per kind across all tracks (engine track included).
  std::array<std::uint64_t, kEventKindCount> counts{};
  std::uint64_t span_begin = 0;  ///< earliest event ts
  std::uint64_t span_end = 0;    ///< max ts+dur: the traced makespan
  /// Wall extent of the traced run itself — a thread session's epoch starts
  /// at construction, which can be long before the traced run does.
  [[nodiscard]] std::uint64_t extent() const noexcept {
    return span_end > span_begin ? span_end - span_begin : 0;
  }
  std::uint64_t units = 0;      ///< kUnitCommit count
  SpeculationWaste waste;       ///< replayed waste ledger (see above)
  // Critical path through the unit dependency graph.
  std::uint64_t critical_path_ns = 0;
  std::vector<CriticalHop> critical_path;  ///< root-first

  /// Lower bound on achievable speedup implied by the dependency graph:
  /// total compute over the critical path.
  [[nodiscard]] double parallelism_bound() const noexcept {
    std::uint64_t total = 0;
    for (const WorkerTimeline& w : workers) total += w.compute_ns;
    return critical_path_ns > 0
               ? static_cast<double>(total) /
                     static_cast<double>(critical_path_ns)
               : 0.0;
  }
};

/// Crunch a flat event stream (any order) into the report.
inline TraceReport analyze_trace(const std::vector<TraceEvent>& events) {
  TraceReport rep;

  // --- pass 1: per-worker totals and global counters ----------------------
  std::unordered_map<std::uint16_t, WorkerTimeline> tracks;
  std::unordered_map<std::uint32_t, std::uint64_t> node_cost;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> children;
  std::unordered_map<std::uint32_t, bool> is_child;
  // Commit-parent edges (node -> parent) and cancelled subtree roots
  // (node -> cause arg) for the waste replay.  kUnitCommit edges alone
  // close the ancestor chains: a node acquires children only through its
  // own expand commit, so every ancestor of a committed node committed.
  std::unordered_map<std::uint32_t, std::uint32_t> parent;
  std::unordered_map<std::uint32_t, std::uint32_t> cancelled;
  int max_worker = -1;
  bool first_event = true;
  for (const TraceEvent& e : events) {
    ++rep.counts[static_cast<std::size_t>(e.kind)];
    rep.span_begin = first_event ? e.ts : std::min(rep.span_begin, e.ts);
    first_event = false;
    // Instants' dur is payload (kUnitCommit compute ns), not timeline
    // extent — only genuine spans can push the end of the trace out.
    rep.span_end =
        std::max(rep.span_end, e.ts + (is_span(e.kind) ? e.dur : 0));
    const bool engine_track = e.worker == TraceSession::kEngineWorker;
    if (!engine_track) {
      max_worker = std::max(max_worker, static_cast<int>(e.worker));
      WorkerTimeline& w = tracks[e.worker];
      if (w.units + w.compute_ns + w.lock_wait_ns + w.lock_hold_ns +
              w.sleep_ns ==
          0)
        w.first_ts = e.ts;  // first event on this track (stream may be sorted
                            // or not; fix up below)
      w.first_ts = std::min(w.first_ts, e.ts);
      w.last_ts = std::max(w.last_ts, e.ts + e.dur);
      switch (e.kind) {
        case EventKind::kComputeSpan:
          w.compute_ns += e.dur;
          ++w.units;
          break;
        case EventKind::kLockWaitSpan: w.lock_wait_ns += e.dur; break;
        case EventKind::kLockHoldSpan: w.lock_hold_ns += e.dur; break;
        case EventKind::kSleepSpan: w.sleep_ns += e.dur; break;
        default: break;
      }
    }
    switch (e.kind) {
      case EventKind::kComputeSpan:
        if (e.node != kNoTraceNode) node_cost[e.node] += e.dur;
        break;
      case EventKind::kUnitCommit:
        ++rep.units;
        if (e.node != kNoTraceNode && e.arg != kNoTraceNode &&
            e.node != e.arg) {
          children[e.arg].push_back(e.node);
          is_child[e.node] = true;
          parent[e.node] = e.arg;
        }
        break;
      case EventKind::kSpecCancel:
        switch (e.arg) {
          case 0: ++rep.waste.dead_drops; break;
          case 1: ++rep.waste.pop_cutoffs; break;
          case 2:
            if (cancelled.emplace(e.node, e.arg).second)
              ++rep.waste.bound_change.cancels;
            break;
          case 3:
            if (cancelled.emplace(e.node, e.arg).second)
              ++rep.waste.sibling_resolution.cancels;
            break;
          default: break;
        }
        break;
      default: break;
    }
  }

  // --- waste attribution ---------------------------------------------------
  // Second scan (the maps above must be complete first — cancels can land
  // in the stream after the commits they retroactively waste): charge each
  // commit to its nearest cancelled ancestor, self included.
  if (!cancelled.empty()) {
    for (const TraceEvent& e : events) {
      if (e.kind != EventKind::kUnitCommit || e.node == kNoTraceNode) continue;
      for (std::uint32_t a = e.node; a != kNoTraceNode;) {
        if (auto c = cancelled.find(a); c != cancelled.end()) {
          WasteCauseTotal& t = c->second == 2
                                   ? rep.waste.bound_change
                                   : rep.waste.sibling_resolution;
          ++t.units;
          t.compute_ns += e.dur;
          break;
        }
        auto p = parent.find(a);
        a = p == parent.end() ? kNoTraceNode : p->second;
      }
    }
  }

  // --- worker table ---------------------------------------------------------
  const int workers = max_worker + 1;
  rep.workers.reserve(static_cast<std::size_t>(std::max(workers, 0)));
  for (int w = 0; w < workers; ++w) {
    WorkerTimeline t = tracks.count(static_cast<std::uint16_t>(w)) > 0
                           ? tracks[static_cast<std::uint16_t>(w)]
                           : WorkerTimeline{};
    t.worker = w;
    rep.workers.push_back(t);
  }

  // --- critical path -------------------------------------------------------
  // Longest root-to-leaf chain in the commit-parent graph, costed by each
  // node's total compute time.  Iterative post-order (the Othello trees are
  // shallow, but a header must not assume that).
  std::unordered_map<std::uint32_t, std::uint64_t> best;       // subtree cost
  std::unordered_map<std::uint32_t, std::uint32_t> best_child;  // argmax
  auto cost_of = [&node_cost](std::uint32_t n) -> std::uint64_t {
    auto it = node_cost.find(n);
    return it == node_cost.end() ? 0 : it->second;
  };
  auto compute_best = [&](std::uint32_t root) {
    std::vector<std::pair<std::uint32_t, bool>> stack{{root, false}};
    while (!stack.empty()) {
      auto [n, expanded] = stack.back();
      stack.pop_back();
      if (best.count(n) > 0) continue;
      auto ch = children.find(n);
      if (!expanded && ch != children.end() && !ch->second.empty()) {
        stack.emplace_back(n, true);
        for (std::uint32_t c : ch->second)
          if (best.count(c) == 0) stack.emplace_back(c, false);
        continue;
      }
      std::uint64_t max_child = 0;
      std::uint32_t argmax = kNoTraceNode;
      if (ch != children.end()) {
        for (std::uint32_t c : ch->second) {
          auto it = best.find(c);
          const std::uint64_t v = it == best.end() ? 0 : it->second;
          if (argmax == kNoTraceNode || v > max_child) {
            max_child = v;
            argmax = c;
          }
        }
      }
      best[n] = cost_of(n) + max_child;
      best_child[n] = argmax;
    }
  };
  std::uint32_t best_root = kNoTraceNode;
  for (const auto& [node, kids] : children) {
    (void)kids;
    if (is_child.count(node) > 0) continue;  // interior node
    compute_best(node);
    if (best_root == kNoTraceNode || best[node] > best[best_root])
      best_root = node;
  }
  if (best_root != kNoTraceNode) {
    rep.critical_path_ns = best[best_root];
    for (std::uint32_t n = best_root; n != kNoTraceNode;) {
      rep.critical_path.push_back(CriticalHop{n, cost_of(n)});
      auto it = best_child.find(n);
      n = it == best_child.end() ? kNoTraceNode : it->second;
    }
  }
  return rep;
}

// --- text rendering (trace_report tool, EXPERIMENTS.md walkthrough) --------

[[nodiscard]] inline std::string format_ns(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1000000)
    std::snprintf(buf, sizeof buf, "%.3f ms", static_cast<double>(ns) / 1e6);
  else if (ns >= 1000)
    std::snprintf(buf, sizeof buf, "%.3f us", static_cast<double>(ns) / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%llu ns",
                  static_cast<unsigned long long>(ns));
  return buf;
}

/// Render the report as the fixed-width tables trace_report prints.
[[nodiscard]] inline std::string render_report(const TraceReport& rep) {
  std::ostringstream os;

  os << "== per-worker timeline ==\n";
  TextTable workers({"worker", "busy", "lock_wait", "lock_hold", "starve",
                     "units", "util"});
  for (const WorkerTimeline& w : rep.workers)
    workers.add_row({std::to_string(w.worker), format_ns(w.compute_ns),
                     format_ns(w.lock_wait_ns), format_ns(w.lock_hold_ns),
                     format_ns(w.sleep_ns), std::to_string(w.units),
                     TextTable::num(w.utilization())});
  workers.print(os);

  os << "\n== scheduling events ==\n";
  TextTable counts({"event", "count"});
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    if (rep.counts[k] > 0)
      counts.add_row({event_name(static_cast<EventKind>(k)),
                      std::to_string(rep.counts[k])});
  counts.print(os);

  if (rep.waste.total_cancels() + rep.waste.pop_cutoffs > 0) {
    os << "\n== speculation waste ==\n";
    TextTable waste({"cause", "cancels", "units", "compute"});
    auto row = [&waste](const char* name, const WasteCauseTotal& t) {
      waste.add_row({name, std::to_string(t.cancels), std::to_string(t.units),
                     format_ns(t.compute_ns)});
    };
    row("bound_change", rep.waste.bound_change);
    row("sibling_resolution", rep.waste.sibling_resolution);
    waste.add_row({"dead_drop", std::to_string(rep.waste.dead_drops), "0",
                   format_ns(0)});
    waste.print(os);
    os << "wasted " << rep.waste.total_units() << " of " << rep.units
       << " committed units (" << format_ns(rep.waste.total_ns())
       << " compute); pop-time cutoffs " << rep.waste.pop_cutoffs << "\n";
  }

  os << "\n== critical path ==\n";
  os << "trace extent      " << format_ns(rep.extent()) << "\n";
  os << "critical path     " << format_ns(rep.critical_path_ns) << " over "
     << rep.critical_path.size() << " units\n";
  if (rep.critical_path_ns > 0) {
    os << "parallelism bound " << TextTable::num(rep.parallelism_bound())
       << "x (total compute / critical path)\n";
    os << "path (root-first, node:compute):";
    const std::size_t show = std::min<std::size_t>(rep.critical_path.size(), 12);
    for (std::size_t i = 0; i < show; ++i)
      os << " " << rep.critical_path[i].node << ":"
         << format_ns(rep.critical_path[i].compute_ns);
    if (show < rep.critical_path.size())
      os << " ... (+" << rep.critical_path.size() - show << ")";
    os << "\n";
  }
  return std::move(os).str();
}

}  // namespace ers::obs
