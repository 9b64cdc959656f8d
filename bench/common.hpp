#pragma once
// Shared plumbing for the figure-regeneration benches: every bench binary
// prints the series of one paper table/figure, using the Table 3 tree
// registry and the deterministic simulated executor (see DESIGN.md §1 for
// why simulated time stands in for the Sequent's wall clock).
//
// All binaries accept:
//   --scale N   reduce every search/serial depth by N (quick smoke runs)
//   --trees A,B restrict to a subset of tree names
//   --trace F   record the bench's runs into a Perfetto trace at F
//               (open in ui.perfetto.dev, or feed to tools/trace_report)
//   --json-out F write the BENCH rows to F instead of BENCH_<name>.json —
//               what the CI bench guard uses to keep the fresh run from
//               clobbering the committed baseline it diffs against

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/tree_registry.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_writer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace ers::bench {

struct FigureOptions {
  int scale = 0;
  int reps = 5;  ///< repetitions for thread-runtime (nondeterministic) benches
  std::vector<std::string> tree_names;
  std::string trace_path;  ///< empty = untraced (--trace)
  std::string json_out;    ///< empty = default BENCH_<name>.json (--json-out)
};

inline FigureOptions parse_options(int argc, char** argv,
                                   std::vector<std::string> default_trees) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"scale", "reps", "trace", "json-out", "trees"});
  FigureOptions opt;
  opt.scale = static_cast<int>(args.get_int("scale", 0));
  opt.reps = static_cast<int>(args.get_int("reps", 5));
  opt.trace_path = args.get("trace", "");
  opt.json_out = args.get("json-out", "");
  std::string trees = args.get("trees", "");
  if (trees.empty()) {
    opt.tree_names = std::move(default_trees);
  } else {
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      const auto comma = trees.find(',', pos);
      opt.tree_names.push_back(trees.substr(pos, comma - pos));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  }
  return opt;
}

/// The trace session a bench should record into: null unless --trace was
/// given, so benches stay zero-cost when untraced.  The returned pointer
/// aliases `storage`.
[[nodiscard]] inline obs::TraceSession* trace_session_for(
    const FigureOptions& opt, obs::TraceSession& storage) {
  return opt.trace_path.empty() ? nullptr : &storage;
}

/// Flush the --trace file after the bench's runs.  A no-op when --trace
/// was not given, so every bench can call this unconditionally.
inline void write_observability(const FigureOptions& opt,
                                const obs::TraceSession* trace,
                                const std::string& process_name) {
  if (opt.trace_path.empty()) return;
  if (trace != nullptr)
    obs::write_perfetto(opt.trace_path, *trace, process_name);
  else
    std::fprintf(stderr, "--trace ignored: this bench runs no executor\n");
}

/// Run the serial baselines and the full processor sweep for one tree.
struct TreeSweep {
  harness::ExperimentTree tree;
  harness::SerialBaseline serial;
  std::vector<harness::ParallelPoint> points;
};

inline TreeSweep run_sweep(const std::string& name, int scale,
                           obs::TraceSession* trace = nullptr) {
  TreeSweep s{harness::tree_by_name(name, scale), {}, {}};
  s.serial = harness::run_serial_baselines(s.tree);
  for (const int p : harness::figure_processor_counts()) {
    // A traced sweep keeps only its last point: each run starts the session
    // over, so the exported file holds one clean schedule (the largest P),
    // not a pile-up of every sweep point on one virtual timeline.
    if (trace != nullptr) trace->clear();
    s.points.push_back(harness::run_parallel_point(s.tree, p, s.serial, trace));
  }
  return s;
}

/// Title banner.  `executor` names what produced the numbers below it: the
/// simulator by default; benches timed on real threads pass kRealThreads.
inline constexpr const char* kRealThreads = "real threads, wall-clock times";
inline void print_header(
    const char* what,
    const char* executor = "simulated P-processor executor") {
  std::printf("\n=== %s ===\n", what);
  std::printf("(%s; see DESIGN.md / EXPERIMENTS.md)\n\n", executor);
}

// --- machine-readable summaries ------------------------------------------
//
// Every bench can emit a BENCH_<name>.json next to its table: one JSON
// object per line, so runs diff cleanly and scripts consume them without a
// JSON library on either side.  The emitters live in obs/json.hpp (the
// repo's single JSON writer, shared with the Perfetto trace export); bench
// code keeps its unqualified spelling via the using-declarations below,
// and the emitted bytes are unchanged (tests/obs/json_test.cpp pins them).

using obs::json_escape;
using obs::JsonObject;
using obs::write_bench_json;

}  // namespace ers::bench
