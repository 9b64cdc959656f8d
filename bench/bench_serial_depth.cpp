// Serial-depth sweep (paper §7's contention/starvation discussion): moving
// the cutover deeper creates more, smaller work units — less starvation but
// more shared-heap contention; moving it shallower does the opposite.  The
// paper: "It would be possible to reduce contention by decreasing the serial
// depth, but decreasing the depth would only increase starvation."
//
// Each cutover gets the simulator's 16-processor point and, next to it, the
// real-thread wall time of parallel_er_threads at 1 and 4 threads (fastest
// of --reps solves, each value checked against serial alpha-beta), so the
// cutover the simulator favours can be compared with the one real cores do.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/parallel_er.hpp"
#include "search/alpha_beta.hpp"
#include "util/check.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Fastest of `reps` calls of `solve`, in wall ms.  `solve` returns the
/// root value, which must equal `oracle` on every call.
template <typename Solve>
double fastest_ms(int reps, ers::Value oracle, Solve solve) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    const auto t0 = Clock::now();
    const ers::Value v = solve();
    const auto t1 = Clock::now();
    ERS_CHECK(v == oracle && "solve disagrees with serial alpha-beta");
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Real-thread wall ms of parallel ER on `tree` at `threads` threads.
double threads_ms(const ers::harness::ExperimentTree& tree, int threads,
                  int reps, ers::Value oracle) {
  return std::visit(
      [&](const auto& game) {
        return fastest_ms(reps, oracle, [&] {
          return ers::parallel_er_threads(game, tree.engine, threads).value;
        });
      },
      tree.game);
}

/// Serial alpha-beta wall ms on `tree` (the reference the 4-thread column
/// has to beat).
double alpha_beta_ms(const ers::harness::ExperimentTree& tree, int reps,
                     ers::Value oracle) {
  return std::visit(
      [&](const auto& game) {
        return fastest_ms(reps, oracle, [&] {
          return ers::alpha_beta_search(game, tree.engine.search_depth,
                                        tree.engine.ordering)
              .value;
        });
      },
      tree.game);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv, {"R3", "O1"});
  bench::print_header("Serial-depth sweep: contention vs starvation ( 7)");
  std::printf("sim: 16 simulated processors; 1-thr/4-thr ms: fastest of %d "
              "real-thread solves\n\n",
              opt.reps);

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "serial_depth");
  TextTable table({"tree", "serial depth", "procs", "units", "speedup",
                   "efficiency", "idle share", "lock share", "nodes",
                   "1-thr ms", "4-thr ms"});
  std::vector<std::string> references;
  for (const auto& name : opt.tree_names) {
    const auto base = harness::tree_by_name(name, opt.scale);
    const auto serial = harness::run_serial_baselines(base);
    for (int sd = 0; sd <= base.engine.search_depth; ++sd) {
      auto tree = base;
      tree.engine.serial_depth = sd;
      const int p = 16;
      if (trace != nullptr) trace->clear();  // keep the last point only
      const auto pt =
          harness::run_parallel_point(tree, p, serial, {}, nullptr, 1, trace);
      reg.set("tree", tree.name);
      reg.set("serial_depth", sd);
      bench::register_parallel_point(reg, pt);
      const double total = static_cast<double>(pt.metrics.makespan) * p;
      table.add_row({tree.name, std::to_string(sd), std::to_string(p),
                     std::to_string(pt.metrics.units),
                     TextTable::num(pt.speedup, 2),
                     TextTable::num(pt.efficiency, 3),
                     TextTable::num(pt.metrics.idle_time / total, 3),
                     TextTable::num(pt.metrics.lock_wait_time / total, 3),
                     std::to_string(pt.nodes_generated),
                     TextTable::num(threads_ms(tree, 1, opt.reps, serial.value), 2),
                     TextTable::num(threads_ms(tree, 4, opt.reps, serial.value), 2)});
    }
    references.push_back(base.name + " " +
                         TextTable::num(alpha_beta_ms(base, opt.reps, serial.value), 2) +
                         " ms");
  }
  table.print();
  std::printf("\nserial alpha-beta (fastest of %d):", opt.reps);
  for (const auto& r : references) std::printf("  %s", r.c_str());
  std::printf("\n");
  bench::write_observability(opt, trace, reg, "serial_depth");
  return 0;
}
