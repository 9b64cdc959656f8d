// trace_report: offline analyzer for Perfetto traces written by the search
// executors (DESIGN.md §11, EXPERIMENTS.md "tracing a run").
//
//   trace_report <trace.json> [--pid N] [--metrics metrics.json]
//
// Prints per-worker busy/starve/lock timelines, scheduling event counts,
// the replayed speculation-waste ledger, and the critical path through the
// unit dependency graph.  --pid selects one session of a multi-session file
// (e.g. the simulated half of a sim-vs-threads diff trace); the default is
// the first session in the file.  --metrics points at the consolidated
// metrics snapshot the same run wrote (bench --metrics F); when given, the
// report appends a memory section with the engine.mem.* node-storage
// gauges (DESIGN.md §15) so trace and occupancy read side by side.

#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"
#include "util/cli.hpp"

namespace {

/// Append the node-storage gauges from a metrics snapshot (obs::MetricsRegistry
/// JSON: one flat object of name -> value).  Non-fatal on absent keys — older
/// snapshots predate the memory section — but a file that exists yet cannot be
/// read or parsed is an error, matching the trace staging below.
int print_memory_section(const std::string& path) {
  std::string text;
  if (!ers::obs::read_file(path, text)) {
    std::fprintf(stderr,
                 "trace_report: cannot open metrics file %s: no such file or "
                 "not readable\n",
                 path.c_str());
    return 1;
  }
  ers::obs::JsonValue root;
  if (!ers::obs::parse_json(text, root) || !root.is_object()) {
    std::fprintf(stderr,
                 "trace_report: %s is not a JSON object — not a metrics "
                 "snapshot written by MetricsRegistry\n",
                 path.c_str());
    return 1;
  }
  static constexpr const char* kMemKeys[] = {
      "engine.mem.live_nodes",     "engine.mem.hot_bytes",
      "engine.mem.position_bytes", "engine.mem.cold_allocated",
      "engine.mem.cold_bytes",     "engine.mem.peak_bytes",
  };
  std::printf("\nmemory (engine node storage, %s):\n", path.c_str());
  bool any = false;
  for (const char* key : kMemKeys) {
    const ers::obs::JsonValue* v = root.find(key);
    if (v == nullptr || !v->is_number()) continue;
    std::printf("  %-28s %.0f\n", key + 7 /* drop "engine." */, v->as_double());
    any = true;
  }
  if (!any)
    std::printf("  (no engine.mem.* gauges — snapshot from a pre-§15 build "
                "or a bench that runs no engine)\n");

  // Waste ledger totals (DESIGN.md §16), printed beside the trace's own
  // speculation-waste replay so the two attributions read side by side.
  static constexpr const char* kWasteKeys[] = {
      "engine.waste.total_cancels",
      "engine.waste.total_units",
      "engine.waste.total_ns",
      "engine.waste.bound_change.cancels",
      "engine.waste.bound_change.units",
      "engine.waste.bound_change.compute_ns",
      "engine.waste.sibling_resolution.cancels",
      "engine.waste.sibling_resolution.units",
      "engine.waste.sibling_resolution.compute_ns",
      "engine.waste.dead_drop.cancels",
  };
  std::printf("\nwaste ledger (engine attribution, %s):\n", path.c_str());
  any = false;
  for (const char* key : kWasteKeys) {
    const ers::obs::JsonValue* v = root.find(key);
    if (v == nullptr || !v->is_number()) continue;
    std::printf("  %-38s %.0f\n", key + 7 /* drop "engine." */,
                v->as_double());
    any = true;
  }
  if (!any)
    std::printf("  (no engine.waste.* counters — snapshot from a pre-§16 "
                "build or a bench that runs no engine)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ers::CliArgs args(argc, argv);
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr,
                 "usage: trace_report <trace.json> [--pid N] "
                 "[--metrics metrics.json]\n");
    return args.has("help") ? 0 : 2;
  }
  const std::string path = args.positional().front();
  const int pid = static_cast<int>(args.get_int("pid", -1));
  const std::string metrics_path = args.get("metrics", "");

  // Stage the load so a missing file, a truncated/unparseable file, and a
  // well-formed file of the wrong shape each get their own diagnostic —
  // CI jobs grep these messages, and "cannot load" hides which step died.
  std::string text;
  if (!ers::obs::read_file(path, text)) {
    std::fprintf(stderr, "trace_report: cannot open %s: no such file or not readable\n",
                 path.c_str());
    return 1;
  }
  ers::obs::JsonValue root;
  if (!ers::obs::parse_json(text, root)) {
    std::fprintf(stderr,
                 "trace_report: %s is not valid JSON — truncated trace? "
                 "(%zu bytes read; a run killed mid-write leaves an "
                 "unterminated traceEvents array)\n",
                 path.c_str(), text.size());
    return 1;
  }
  const ers::obs::JsonValue* array = root.find("traceEvents");
  if (array == nullptr || !array->is_array()) {
    std::fprintf(stderr,
                 "trace_report: %s parses but has no traceEvents array — "
                 "not a Perfetto trace written by trace_writer\n",
                 path.c_str());
    return 1;
  }
  std::vector<ers::obs::TraceEvent> events;
  if (!ers::obs::parse_perfetto(text, events, pid)) {
    std::fprintf(stderr, "trace_report: cannot load %s\n", path.c_str());
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr,
                 "trace_report: %s holds no schema events%s\n", path.c_str(),
                 pid >= 0 ? " for that pid" : "");
    return 1;
  }
  std::printf("%s: %zu events\n\n", path.c_str(), events.size());
  const ers::obs::TraceReport rep = ers::obs::analyze_trace(events);
  std::fputs(ers::obs::render_report(rep).c_str(), stdout);
  if (!metrics_path.empty()) return print_memory_section(metrics_path);
  return 0;
}
