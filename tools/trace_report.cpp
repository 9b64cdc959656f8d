// trace_report: offline analyzer for Perfetto traces written by the search
// executors (DESIGN.md §11, EXPERIMENTS.md "tracing a run").
//
//   trace_report <trace.json>
//
// Prints per-worker busy/starve/lock timelines, scheduling event counts,
// the replayed speculation-waste ledger, and the critical path through the
// unit dependency graph.

#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const ers::CliArgs args(argc, argv);
  args.reject_unknown({"help"});
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr, "usage: trace_report <trace.json>\n");
    return args.has("help") ? 0 : 2;
  }
  const std::string path = args.positional().front();

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
  if (!ers::obs::parse_perfetto(text, events)) {
    std::fprintf(stderr, "trace_report: cannot load %s\n", path.c_str());
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr, "trace_report: %s holds no schema events\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: %zu events\n\n", path.c_str(), events.size());
  const ers::obs::TraceReport rep = ers::obs::analyze_trace(events);
  std::fputs(ers::obs::render_report(rep).c_str(), stdout);
  return 0;
}
