#pragma once
// Chrome trace-event ("Perfetto") export of a TraceSession (DESIGN.md §11).
//
// Emits the JSON Object Format of the Trace Event specification —
// {"traceEvents": [...], "displayTimeUnit": "ns"} — which ui.perfetto.dev
// and chrome://tracing open directly.  Spans become complete events
// (ph "X", microsecond ts/dur with ns precision kept in the fractional
// part); instants become thread-scoped instant events (ph "i").  Every
// event carries the required keys ph, ts, pid, tid, name; the engine-node /
// arg payload travels in "args".
//
// A file holds one session as one Perfetto *process* (pid 1): per-worker
// tracks are that process's threads (tid = worker id), the engine tracer
// gets its own "engine (serialized)" track.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace ers::obs {

/// The session as one trace file, every event under pid 1.
[[nodiscard]] inline std::string perfetto_json(
    const TraceSession& session, const std::string& process_name = "search") {
  constexpr int pid = 1;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  const std::size_t head = out.size();
  auto add = [&out, head](const std::string& line) {
    if (out.size() > head) out += ",\n";
    out += line;
  };
  // Metadata: process and thread names, so tracks are self-describing.
  add(JsonObject()
          .field("ph", "M")
          .field("pid", pid)
          .field("tid", 0)
          .field("name", "process_name")
          .raw("args", JsonObject().field("name", process_name).str())
          .str());
  auto thread_name = [&](int tid, const std::string& name) {
    add(JsonObject()
            .field("ph", "M")
            .field("pid", pid)
            .field("tid", tid)
            .field("name", "thread_name")
            .raw("args", JsonObject().field("name", name).str())
            .str());
  };
  for (int w = 0; w < session.worker_count(); ++w)
    thread_name(w, "worker " + std::to_string(w));
  thread_name(TraceSession::kEngineWorker, "engine (serialized)");

  char ts_buf[40];
  auto us = [&ts_buf](std::uint64_t ns) {  // µs with ns precision
    std::snprintf(ts_buf, sizeof ts_buf, "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    return std::string(ts_buf);
  };
  for (const TraceEvent& e : session.merged()) {
    JsonObject args;
    if (e.node != kNoTraceNode)
      args.field("node", static_cast<std::uint64_t>(e.node));
    args.field("arg", static_cast<std::uint64_t>(e.arg));
    // Instants can carry a payload duration (kUnitCommit: the unit's
    // measured compute ns, read back by the waste replay).  It rides in
    // args — a ph "i" event with a top-level dur is not valid trace-event
    // JSON — and parse_perfetto restores it into TraceEvent::dur.
    if (!is_span(e.kind) && e.dur != 0)
      args.field("dur_ns", static_cast<std::uint64_t>(e.dur));
    JsonObject o;
    o.field("ph", is_span(e.kind) ? "X" : "i")
        .raw("ts", us(e.ts))
        .field("pid", pid)
        .field("tid", static_cast<int>(e.worker))
        .field("name", event_name(e.kind));
    if (is_span(e.kind))
      o.raw("dur", us(e.dur));
    else
      o.field("s", "t");  // thread-scoped instant
    o.raw("args", args.str());
    add(o.str());
  }
  out += "\n]}\n";
  return out;
}

/// Write the trace to `path`; returns false (with a note on stderr) if the
/// file cannot be opened.  Echoes the path plus the drop count so a traced
/// run's log states its own fidelity.
inline bool write_perfetto(const std::string& path,
                           const TraceSession& session,
                           const std::string& process_name = "search") {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return false;
  }
  const std::string json = perfetto_json(session, process_name);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%llu events, %llu dropped)\n", path.c_str(),
              static_cast<unsigned long long>(session.merged().size()),
              static_cast<unsigned long long>(session.total_dropped()));
  return true;
}

}  // namespace ers::obs
