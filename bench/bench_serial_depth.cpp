// Serial-depth sweep (paper §7's contention/starvation discussion): moving
// the cutover deeper creates more, smaller work units — less starvation but
// more shared-heap contention; moving it shallower does the opposite.  The
// paper: "It would be possible to reduce contention by decreasing the serial
// depth, but decreasing the depth would only increase starvation."
//
// Table 1, per Table 3 tree: each cutover gets the simulator's 16-processor
// point and, next to it, the real-thread wall time of parallel_er_threads at
// 1 and 4 threads (fastest of --reps solves, each value checked against
// serial alpha-beta), so the cutover the simulator favours can be compared
// with the one real cores do.
//
// Table 2, the shapes behind the default: ten tree shapes, their inputs
// built the way perfbench builds its workloads (the random_wide_d7 and
// othello_d7 rows are perfbench's own inputs at seed kShapeSeed).  Each cell
// is the median over inputs of each input's fastest of a few 4-thread
// solves, every value checked against alpha-beta.  Each input runs every
// cutover of its row in turn, from ply 1 to the row's last ply.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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

// --- Table 2: the shapes behind the default -------------------------------

constexpr std::uint64_t kShapeSeed = 7;
constexpr int kShapeThreads = 4;

/// One row of Table 2.  `label` is hashed into the input seeds the way
/// perfbench hashes its workload name.
struct Shape {
  const char* label;
  int degree;  ///< 0 = Othello self-play positions
  int depth;
  int inputs;
  int solves;    ///< fastest of this many solves per cell
  int last_ply;  ///< cutovers 1..last_ply; deeper ones cost seconds a solve
};

constexpr Shape kShapes[] = {
    {"random b=2, d=22", 2, 22, 20, 3, 7},
    {"random b=3, d=12", 3, 12, 30, 3, 6},
    {"random b=3, d=14", 3, 14, 20, 3, 6},
    {"random b=4, d=10", 4, 10, 30, 3, 5},
    {"random_wide_d7", 8, 7, 40, 3, 4},
    {"random b=8, d=8", 8, 8, 30, 3, 4},
    {"random b=16, d=6", 16, 6, 30, 3, 4},
    {"random b=32, d=5", 32, 5, 20, 3, 3},
    {"othello_d7", 0, 7, 15, 3, 4},
    {"othello_d9", 0, 9, 15, 2, 4},
};

/// perfbench's per-input seed: the run seed, the workload name, the index.
std::uint64_t input_seed(const char* label, int index) {
  std::uint64_t h = ers::splitmix64(kShapeSeed);
  for (const char* c = label; *c != '\0'; ++c)
    h = ers::hash_combine(h, static_cast<unsigned char>(*c));
  return ers::hash_combine(h, static_cast<std::uint64_t>(index) + 1);
}

/// Medians over a row's inputs, in ms.
struct ShapeResult {
  double alpha_beta = 0;
  std::map<int, double> plies;  ///< cutover -> ms
};

template <ers::Game G>
ShapeResult run_shape(const std::vector<G>& games, int depth, int last_ply,
                      const ers::OrderingPolicy& ordering, int solves) {
  using namespace ers;
  std::vector<double> ab_ms;
  std::map<int, std::vector<double>> er_ms;
  for (const G& g : games) {
    const Value oracle = alpha_beta_search(g, depth, ordering).value;
    ab_ms.push_back(fastest_ms(solves, oracle, [&] {
      return alpha_beta_search(g, depth, ordering).value;
    }));
    // One cutover's solves run back to back, so all but the first follow a
    // solve of the same configuration: a solve's time depends on the solve
    // before it.
    for (int c = 1; c <= std::min(depth, last_ply); ++c) {
      core::EngineConfig cfg;
      cfg.search_depth = depth;
      cfg.serial_depth = c;
      cfg.ordering = ordering;
      er_ms[c].push_back(fastest_ms(solves, oracle, [&] {
        return parallel_er_threads(g, cfg, kShapeThreads).value;
      }));
    }
  }
  ShapeResult out;
  out.alpha_beta = percentile(ab_ms, 0.5);
  for (const auto& [c, ms] : er_ms) out.plies[c] = percentile(ms, 0.5);
  return out;
}

ShapeResult run_shape(const Shape& s, int scale) {
  using namespace ers;
  const int depth = std::max(1, s.depth - scale);
  if (s.degree == 0) {
    // perfbench's othello inputs: plies cycle through O1–O3's 11/15/19
    // with a seeded +-1 jitter; children sorted down to ply 5.
    static constexpr int kPlies[3] = {11, 15, 19};
    std::vector<othello::OthelloGame> games;
    for (int i = 0; i < s.inputs; ++i) {
      const std::uint64_t seed = input_seed(s.label, i);
      const int plies = kPlies[i % 3] + static_cast<int>(seed % 3) - 1;
      games.emplace_back(othello::selfplay_position(plies, seed >> 2));
    }
    OrderingPolicy sorted;
    sorted.sort_by_static_value = true;
    sorted.max_sort_ply = 6;
    return run_shape(games, depth, s.last_ply, sorted, s.solves);
  }
  std::vector<UniformRandomTree> games;
  for (int i = 0; i < s.inputs; ++i)
    games.emplace_back(s.degree, depth, input_seed(s.label, i));
  return run_shape(games, depth, s.last_ply, OrderingPolicy{}, s.solves);
}

void print_shape_table(int scale) {
  using namespace ers;
  const int default_ply = core::EngineConfig{}.serial_depth;
  std::printf("\nCutover across shapes: %d threads, ms, median over inputs of "
              "each input's fastest solve (seed %llu)\n\n",
              kShapeThreads, static_cast<unsigned long long>(kShapeSeed));
  std::vector<ShapeResult> rows;
  int hi = 1;
  for (const Shape& s : kShapes) {
    rows.push_back(run_shape(s, scale));
    hi = std::max(hi, rows.back().plies.rbegin()->first);
  }
  std::vector<std::string> headers = {"shape (inputs)", "alpha-beta"};
  for (int ply = 1; ply <= hi; ++ply)
    headers.push_back("ply " + std::to_string(ply) +
                      (ply == default_ply ? " (default)" : ""));
  headers.emplace_back("default / best");
  TextTable table(headers);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ShapeResult& res = rows[r];
    std::vector<std::string> cells = {
        std::string(kShapes[r].label) + " (" +
            std::to_string(kShapes[r].inputs) + ")",
        TextTable::num(res.alpha_beta, 2)};
    double best = std::numeric_limits<double>::infinity();
    for (int ply = 1; ply <= hi; ++ply) {
      const auto it = res.plies.find(ply);
      cells.push_back(it == res.plies.end() ? "-"
                                            : TextTable::num(it->second, 2));
      if (it != res.plies.end()) best = std::min(best, it->second);
    }
    const auto def = res.plies.find(default_ply);
    cells.push_back(def == res.plies.end()
                        ? "-"
                        : TextTable::num(def->second / best, 2) + "x");
    table.add_row(std::move(cells));
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv, {"R3", "O1"});
  bench::print_header("Serial-depth sweep: contention vs starvation ( 7)",
                      "simulated P-processor executor next to real-thread "
                      "wall-clock times");
  std::printf("sim: 16 simulated processors; 1-thr/4-thr ms: fastest of %d "
              "real-thread solves\n\n",
              opt.reps);

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
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
      const auto pt = harness::run_parallel_point(tree, p, serial, trace);
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
  print_shape_table(opt.scale);
  bench::write_observability(opt, trace, "serial_depth");
  return 0;
}
