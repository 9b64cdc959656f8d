// Solve worker for the time-to-solution benchmark (see README.md).
//
// run.py starts this process, reads one line per event from its stdout and
// restarts it after a crash or a time-out, so that one aborted solve costs
// one failed solve instead of the whole run.  Protocol (one line each):
//
//   READY {json}   set-up finished: oracle values, task count, set-up times
//   B {json}       the timed solve of a task starts now: task, input, searcher
//   R {json}       result of that task (time, answer check, counters; traced
//                  runs: self time per span name of the task's spans)
//   END {}         measurement finished
//
// Tasks are numbered: task t visits input (t / slots) mod N and slot
// t mod slots, for kPasses passes over the N inputs; the searcher of a slot
// rotates with the input index and the pass, so host interference lands on
// every searcher's series.  The worker only calls the library's public entry
// points and times them from outside.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/abdada_par.hpp"
#include "core/engine.hpp"
#include "core/parallel_er.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/concurrent_ttable.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ers::Value;
using ers::obs::JsonObject;

const Clock::time_point g_epoch = Clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           g_epoch)
          .count());
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr, "perfbench_worker: %s\n", msg);
  std::exit(2);
}

// --- spans ----------------------------------------------------------------

/// The benchmark's own trace: one span per call into a layer, kept in memory
/// and written out at exit.  Spans nest by `parent`; a span's self time is
/// its duration minus the part of it covered by its children.  When a
/// top-level span closes, its tree's self times are folded into per-name
/// totals; the first kKeep spans stay for the file, later trees are dropped
/// whole (a traced run makes millions of spans).
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  // index + 1 of the parent span; 0 = none
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

class SpanLog {
 public:
  static constexpr std::size_t kKeep = 100'000;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint32_t name_id(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    self_.push_back(0);
    const auto id = static_cast<std::uint32_t>(names_.size() - 1);
    ids_.emplace(name, id);
    return id;
  }

  /// Opens a span now; returns its handle (0 when tracing is off).
  std::uint32_t open(std::uint32_t name, std::uint32_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, parent, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t handle) {
    if (handle == 0) return;
    Span& s = spans_[handle - 1];
    s.end = now_ns();
    if (s.parent == 0) fold(handle - 1);
  }
  /// A span whose interval was measured elsewhere (program trace events).
  void add(std::uint32_t name, std::uint32_t parent, std::uint64_t start,
           std::uint64_t end) {
    if (enabled_) spans_.push_back(Span{name, parent, start, end});
  }

  /// Self time per span name folded since the last call, as a JSON object
  /// (names with no new self time are left out).
  [[nodiscard]] std::string take_self_times() {
    JsonObject out;
    for (std::size_t n = 0; n < names_.size(); ++n) {
      if (self_[n] == 0) continue;
      out.field(names_[n].c_str(), self_[n]);
      self_[n] = 0;
    }
    return out.str();
  }

  /// Writes the kept spans as CSV: name,parent,start_ns,end_ns (parent is
  /// the 1-based index of the parent among the data lines, 0 = none).
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fputs("name,parent,start_ns,end_ns\n", f);
    for (const Span& s : spans_)
      std::fprintf(f, "%s,%u,%" PRIu64 ",%" PRIu64 "\n",
                   names_[s.name].c_str(), s.parent, s.start, s.end);
    std::fclose(f);
  }

 private:
  /// Spans [root, end) form one tree: the worker is single-threaded apart
  /// from the program's own spans, which are added under a still-open span.
  void fold(std::size_t root) {
    const std::size_t n = spans_.size() - root;
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(n);
    for (std::size_t i = root + 1; i < spans_.size(); ++i) {
      const std::size_t p = spans_[i].parent;
      if (p > root && p - 1 - root < n)
        kids[p - 1 - root].emplace_back(spans_[i].start, spans_[i].end);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[root + i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::uint64_t covered = 0;
      std::uint64_t reach = s.start;
      for (auto [a, b] : iv) {
        a = std::clamp(a, reach, s.end);
        b = std::clamp(b, a, s.end);
        covered += b - a;
        reach = std::max(reach, b);
      }
      const std::uint64_t dur = s.end > s.start ? s.end - s.start : 0;
      self_[s.name] += dur > covered ? dur - covered : 0;
    }
    if (spans_.size() > kKeep) spans_.resize(root);
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> self_;
  std::map<std::string, std::uint32_t> ids_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, std::uint32_t name, std::uint32_t parent = 0)
      : log_(log), handle_(log.open(name, parent)) {}
  ~Scope() { log_.close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t handle() const noexcept { return handle_; }

 private:
  SpanLog& log_;
  std::uint32_t handle_;
};

// --- output ----------------------------------------------------------------

template <typename T>
std::string json_list(const std::vector<T>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

void emit(const char* tag, const std::string& body) {
  std::printf("%s %s\n", tag, body.c_str());
  std::fflush(stdout);
}

// --- options -----------------------------------------------------------------

/// Every searcher solves every input this many times; run.py keeps each
/// input's fastest solve, which a burst of host interference must hit on
/// every pass to move.
constexpr std::uint64_t kPasses = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int inputs = 0;
  bool trace = false;
  bool setup_only = false;
  std::uint64_t resume = 0;
  std::vector<Value> oracle;  // given on restart: skips the oracle pass
  std::string spans_out;
};

std::vector<Value> parse_values(const char* s) {
  std::vector<Value> out;
  while (*s != '\0') {
    char* end = nullptr;
    out.push_back(static_cast<Value>(std::strtol(s, &end, 10)));
    if (end == s) usage_error("bad --oracle list");
    s = *end == ',' ? end + 1 : end;
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--inputs") o.inputs = std::atoi(next());
    else if (a == "--trace") o.trace = std::atoi(next()) != 0;
    else if (a == "--setup-only") o.setup_only = true;
    else if (a == "--resume") o.resume = std::strtoull(next(), nullptr, 10);
    else if (a == "--oracle") o.oracle = parse_values(next());
    else if (a == "--spans-out") o.spans_out = next();
    else usage_error(("unknown option " + a).c_str());
  }
  if (o.inputs < 1) usage_error("--inputs must be >= 1");
  if (!o.oracle.empty() && o.oracle.size() != static_cast<std::size_t>(o.inputs))
    usage_error("--oracle needs one value per input");
  return o;
}

// --- workloads ------------------------------------------------------------------

/// The search settings the benchmark fixes: depth and the tree's sort
/// policy.  Everything else stays at the library default.
struct Setting {
  int depth = 7;
  ers::OrderingPolicy ordering;

  [[nodiscard]] ers::core::EngineConfig engine(int depth_override = -1) const {
    ers::core::EngineConfig cfg;
    cfg.search_depth = depth_override >= 0 ? depth_override : depth;
    cfg.ordering = ordering;
    return cfg;
  }
};

std::uint64_t input_seed(std::uint64_t seed, const std::string& workload,
                         int index) {
  std::uint64_t h = ers::splitmix64(seed);
  for (const char c : workload) h = ers::hash_combine(h, static_cast<unsigned char>(c));
  return ers::hash_combine(h, static_cast<std::uint64_t>(index) + 1);
}

std::vector<ers::othello::OthelloGame> othello_inputs(const Options& o) {
  // Ply counts cycle through the paper's O1–O3 (11/15/19) with a seeded
  // +-1 jitter, so any prefix of the list is balanced across the three.
  static constexpr int kPlies[3] = {11, 15, 19};
  std::vector<ers::othello::OthelloGame> games;
  for (int i = 0; i < o.inputs; ++i) {
    const std::uint64_t s = input_seed(o.seed, o.workload, i);
    const int plies = kPlies[i % 3] + static_cast<int>(s % 3) - 1;
    games.emplace_back(ers::othello::selfplay_position(plies, s >> 2));
  }
  return games;
}

std::vector<ers::UniformRandomTree> random_inputs(const Options& o, int degree,
                                                  int height) {
  std::vector<ers::UniformRandomTree> games;
  for (int i = 0; i < o.inputs; ++i)
    games.emplace_back(degree, height, input_seed(o.seed, o.workload, i));
  return games;
}

// Leaf-kernel probe positions: a seeded random playout from a root.
template <ers::Game G>
std::vector<typename G::Position> playout(const G& game, std::uint64_t seed,
                                          int plies) {
  ers::Xoshiro256StarStar rng(seed);
  std::vector<typename G::Position> path{game.root()};
  std::vector<typename G::Position> kids;
  for (int p = 0; p < plies; ++p) {
    kids.clear();
    game.generate_children(path.back(), kids);
    if (kids.empty()) break;
    path.push_back(kids[rng.below(kids.size())]);
  }
  return path;
}

// --- leaf kernels ------------------------------------------------------------------

volatile std::int64_t g_sink = 0;

/// Times 512 generate_children and 512 evaluate calls over `positions`
/// (cycled), one span per batch; writes ns per call into j.
template <ers::Game G>
void kernel_batches(const G& game, const std::vector<typename G::Position>& positions,
                    const char* layer, SpanLog& spans, std::uint32_t parent,
                    JsonObject& j) {
  constexpr int kCalls = 512;
  std::vector<typename G::Position> kids;
  kids.reserve(64);
  const std::string children = std::string(layer) + ".children_batch";
  const std::string eval = std::string(layer) + ".eval_batch";
  std::uint64_t t0 = now_ns();
  {
    Scope s(spans, spans.name_id(children), parent);
    std::size_t n = 0;
    for (int c = 0; c < kCalls; ++c) {
      kids.clear();
      game.generate_children(positions[static_cast<std::size_t>(c) % positions.size()], kids);
      n += kids.size();
    }
    g_sink = g_sink + static_cast<std::int64_t>(n);
  }
  std::uint64_t t1 = now_ns();
  {
    Scope s(spans, spans.name_id(eval), parent);
    std::int64_t acc = 0;
    for (int c = 0; c < kCalls; ++c)
      acc += game.evaluate(positions[static_cast<std::size_t>(c) % positions.size()]);
    g_sink = g_sink + acc;
  }
  std::uint64_t t2 = now_ns();
  j.field((std::string(layer) + "_children_ns").c_str(),
          static_cast<double>(t1 - t0) / kCalls)
      .field((std::string(layer) + "_eval_ns").c_str(),
             static_cast<double>(t2 - t1) / kCalls);
}

/// Both leaf kernels on every workload: the input's own game along a seeded
/// playout, and seeded positions of the other game (which the workload's
/// solves never call), so every traced run reports the same metric set.
void kernel_probe(const ers::othello::OthelloGame& og,
                  const ers::UniformRandomTree& rt, std::uint64_t seed,
                  SpanLog& spans, std::uint32_t parent, JsonObject& j) {
  kernel_batches(og, playout(og, seed, 12), "othello", spans, parent, j);
  kernel_batches(rt, playout(rt, seed, 10), "randomtree", spans, parent, j);
}
void kernel_probe(const ers::othello::OthelloGame& own, std::uint64_t seed,
                  SpanLog& spans, std::uint32_t parent, JsonObject& j) {
  kernel_probe(own, ers::UniformRandomTree(4, 10, seed), seed, spans, parent, j);
}
void kernel_probe(const ers::UniformRandomTree& own, std::uint64_t seed,
                  SpanLog& spans, std::uint32_t parent, JsonObject& j) {
  const ers::othello::OthelloGame og(ers::othello::selfplay_position(
      11 + static_cast<int>(seed % 3) * 4, seed));
  kernel_probe(og, own, seed, spans, parent, j);
}

// --- one benchmark run over one game type -----------------------------------------

enum Searcher : int { kEr4, kEr1, kAb, kAbdada, kEr4Traced, kProbe };
const char* searcher_name(int s) {
  static const char* kNames[] = {"er4", "er1", "ab", "abdada", "er4_traced",
                                 "probe"};
  return kNames[s];
}

template <ers::Game G>
class Runner {
 public:
  using Position = typename G::Position;

  Runner(const Options& o, std::vector<G> games, Setting setting)
      : opt_(o), games_(std::move(games)), set_(setting), spans_(o.trace) {
    move_values_.resize(games_.size());
    root_kids_.resize(games_.size());
    n_solve_ = spans_.name_id("bench.solve");
    n_check_ = spans_.name_id("bench.answer_check");
    n_er_ = spans_.name_id("core.parallel_er_threads");
    n_ab_ = spans_.name_id("search.alpha_beta_search");
    n_abdada_ = spans_.name_id("baselines.abdada_parallel_search");
    n_check_ab_ = spans_.name_id("search.alpha_beta_run_from");
    n_probe_ = spans_.name_id("bench.engine_probe");
    n_acquire_ = spans_.name_id("core.acquire");
    n_commit_ = spans_.name_id("core.commit");
    n_unit_ = spans_.name_id("search.compute_serial_unit");
    n_expand_ = spans_.name_id("core.compute_expand");
    n_fixed_ = spans_.name_id("runtime.parallel_er_threads_depth1");
    n_tt_ = spans_.name_id("search.tt_alloc");
    n_rt_compute_ = spans_.name_id("runtime.compute");
    n_rt_wait_ = spans_.name_id("runtime.lock_wait");
    n_rt_hold_ = spans_.name_id("runtime.lock_hold");
    n_rt_sleep_ = spans_.name_id("runtime.sleep");
  }

  int run() {
    const std::uint64_t t_setup0 = now_ns();
    if (opt_.oracle.empty()) {
      for (const G& g : games_)
        oracle_.push_back(ers::alpha_beta_search(g, set_.depth, set_.ordering).value);
    } else {
      oracle_ = opt_.oracle;
    }
    const std::uint64_t t_oracle = now_ns();
    warm_up();
    const std::uint64_t t_warm = now_ns();
    const int slots = opt_.trace ? 5 : 4;
    const std::uint64_t per_pass =
        static_cast<std::uint64_t>(slots) * games_.size();
    const std::uint64_t tasks = per_pass * kPasses;
    emit("READY", JsonObject()
                      .raw("oracle", json_list(oracle_))
                      .field("tasks", tasks)
                      .field("oracle_s", (t_oracle - t_setup0) * 1e-9)
                      .field("warmup_s", (t_warm - t_oracle) * 1e-9)
                      .str());
    if (opt_.setup_only) return 0;

    for (std::uint64_t t = opt_.resume; t < tasks; ++t) {
      const std::uint64_t slot = t % static_cast<std::uint64_t>(slots);
      const std::uint64_t pass = t / per_pass;
      const auto input = static_cast<std::size_t>((t / slots) % games_.size());
      int searcher = kProbe;
      if (slot < 4) {
        static constexpr int kPlain[4] = {kEr4, kEr1, kAb, kAbdada};
        static constexpr int kTraced[4] = {kEr4, kEr4Traced, kAb, kAbdada};
        const auto rot = static_cast<std::size_t>((slot + input + pass) % 4);
        searcher = opt_.trace ? kTraced[rot] : kPlain[rot];
      }
      JsonObject j;
      j.field("t", t).field("i", input).field("s", searcher_name(searcher));
      emit("B", j.str());
      solve(searcher, input, j);
      if (opt_.trace) j.raw("self_ns", spans_.take_self_times());
      emit("R", j.str());
    }
    if (opt_.trace && !opt_.spans_out.empty()) spans_.write(opt_.spans_out);
    emit("END", "{}");
    return 0;
  }

 private:
  struct Check {
    bool ok = true;
    std::string why;
  };

  void warm_up() {
    // Every searcher twice on the first input, untimed: first-touch page
    // faults (the ABDADA table is 16 MiB) and thread start-up stay out of
    // the timed solves.
    const G& g = games_.front();
    for (int rep = 0; rep < 2; ++rep) {
      (void)ers::parallel_er_threads(g, set_.engine(), 4);
      (void)ers::parallel_er_threads(g, set_.engine(), 1);
      (void)ers::alpha_beta_search(g, set_.depth, set_.ordering);
      (void)ers::baselines::abdada_parallel_search(g, set_.depth, abdada_opts());
      if (session_) {
        session_->clear();
        (void)ers::parallel_er_threads(g, set_.engine(), 4, 1, 1, session_.get());
        session_->clear();
      }
    }
  }

  [[nodiscard]] ers::baselines::AbdadaOptions abdada_opts() const {
    ers::baselines::AbdadaOptions a;
    a.threads = 4;
    a.ordering = set_.ordering;
    return a;
  }

  /// The root child's alpha-beta value searched from ply 1, cached per
  /// input; empty when `move` is no root child.
  std::optional<Value> child_value(std::size_t input, const Position& move) {
    const G& g = games_[input];
    auto& kids = root_kids_[input];
    if (kids.empty()) g.generate_children(g.root(), kids);
    auto& vals = move_values_[input];
    vals.resize(kids.size());
    for (std::size_t k = 0; k < kids.size(); ++k) {
      if (!(kids[k] == move)) continue;
      if (!vals[k]) {
        Scope s(spans_, n_check_ab_, check_span_);
        ers::AlphaBetaSearcher<G> ab(g, set_.depth, set_.ordering);
        vals[k] = ab.run_from(move, 1).value;
      }
      return vals[k];
    }
    return std::nullopt;
  }

  Check check(std::size_t input, Value v, const std::optional<Position>* move) {
    Check c;
    if (v != oracle_[input]) {
      c.ok = false;
      c.why = "value " + std::to_string(v) + " != oracle " +
              std::to_string(oracle_[input]);
      return c;
    }
    if (move != nullptr && move->has_value()) {
      const std::optional<Value> cv = child_value(input, **move);
      if (!cv) {
        c.ok = false;
        c.why = "best move is no root child";
      } else if (ers::negate(*cv) != v) {
        c.ok = false;
        c.why = "best move scores " + std::to_string(ers::negate(*cv)) +
                " != root value " + std::to_string(v);
      }
    }
    return c;
  }

  void finish(JsonObject& j, std::uint64_t ns, const Check& c, std::size_t input,
              const char* searcher) {
    j.field("ns", ns).field("ok", c.ok ? 1 : 0);
    if (!c.ok) {
      j.field("why", c.why);
      std::fprintf(stderr,
                   "perfbench: wrong answer: workload %s seed %" PRIu64
                   " input %zu searcher %s: %s\n",
                   opt_.workload.c_str(), opt_.seed, input, searcher,
                   c.why.c_str());
    }
  }

  void solve(int searcher, std::size_t input, JsonObject& j) {
    const G& g = games_[input];
    Scope solve_span(spans_, n_solve_);
    switch (searcher) {
      case kEr4:
      case kEr1:
      case kEr4Traced: {
        const int threads = searcher == kEr1 ? 1 : 4;
        ers::obs::TraceSession* tr = nullptr;
        if (searcher == kEr4Traced) {
          session_->clear();
          tr = session_.get();
        }
        std::uint64_t t0 = 0;
        std::uint64_t t1 = 0;
        std::uint32_t call_span = 0;
        ers::ParallelSearchResult<Position> r;
        {
          Scope call(spans_, n_er_, solve_span.handle());
          call_span = call.handle();
          t0 = now_ns();
          // Only the traced call names batch and shards, because the trace
          // session comes after them; they are the library defaults today.
          r = tr == nullptr
                  ? ers::parallel_er_threads(g, set_.engine(), threads)
                  : ers::parallel_er_threads(g, set_.engine(), threads, 1, 1, tr);
          t1 = now_ns();
        }
        Check c;
        {
          Scope cs(spans_, n_check_, solve_span.handle());
          check_span_ = cs.handle();
          c = check(input, r.value, &r.best_move);
        }
        finish(j, t1 - t0, c, input, searcher_name(searcher));
        if (searcher != kEr1) er_stats(j, r);
        if (tr != nullptr) runtime_profile(j, r, call_span);
        break;
      }
      case kAb: {
        ers::AlphaBetaSearcher<G> ab(g, set_.depth, set_.ordering);
        std::uint64_t t0 = 0;
        std::uint64_t t1 = 0;
        ers::SearchResult r;
        std::optional<Position> move;
        {
          Scope call(spans_, n_ab_, solve_span.handle());
          t0 = now_ns();
          r = ab.run();
          move = ab.best_root_position();
          t1 = now_ns();
        }
        Check c;
        {
          Scope cs(spans_, n_check_, solve_span.handle());
          check_span_ = cs.handle();
          c = check(input, r.value, &move);
        }
        finish(j, t1 - t0, c, input, "ab");
        j.field("nodes", r.stats.nodes_generated());
        break;
      }
      case kAbdada: {
        std::uint64_t t0 = 0;
        std::uint64_t t1 = 0;
        ers::baselines::AbdadaParallelResult r;
        {
          Scope call(spans_, n_abdada_, solve_span.handle());
          t0 = now_ns();
          r = ers::baselines::abdada_parallel_search(g, set_.depth, abdada_opts());
          t1 = now_ns();
        }
        const Check c = check(input, r.value, nullptr);  // ABDADA has no move
        finish(j, t1 - t0, c, input, "abdada");
        j.field("nodes", r.stats.nodes_generated())
            .field("tt_probes", r.stats.tt_probes)
            .field("tt_hits", r.stats.tt_hits)
            .field("researches", static_cast<std::uint64_t>(r.researches));
        break;
      }
      default:
        probe(input, j, solve_span.handle());
        break;
    }
  }

  void er_stats(JsonObject& j, const ers::ParallelSearchResult<Position>& r) {
    const auto& rep = r.report;
    j.field("nodes", r.engine.search.nodes_generated())
        .field("units", r.engine.units_processed)
        .field("waste_units", r.waste.total_units())
        .field("peak_bytes", rep.mem.peak_bytes)
        .field("live_nodes", rep.mem.live_nodes)
        .field("elapsed_ns", rep.elapsed_ns)
        .field("threads", static_cast<std::uint64_t>(rep.threads))
        .field("lock_wait_ns", rep.sched.lock_wait_ns)
        .field("lock_hold_ns", rep.sched.lock_hold_ns)
        .field("sleeps", rep.sched.sleeps)
        .field("wakeups", rep.sched.wakeups_issued);
  }

  /// Splits threads x wall time of a traced 4-thread solve by the program's
  /// own spans.  `covered_ns` is the per-worker union of all span intervals
  /// inside the call window, so compute + sleep + lock wait + lock hold +
  /// (window - covered) adds up to the window exactly unless spans overlap.
  void runtime_profile(JsonObject& j, const ers::ParallelSearchResult<Position>& r,
                       std::uint32_t call_span) {
    using ers::obs::EventKind;
    const ers::obs::TraceSession& session = *session_;
    // Session timestamps count from the session's own epoch; shift them onto
    // the benchmark clock so the program's spans nest under the call span.
    const std::uint64_t offset = now_ns() - session.now_ns();
    const std::uint64_t window = r.report.elapsed_ns;
    std::uint64_t sum[4] = {0, 0, 0, 0};
    std::uint64_t covered = 0;
    for (int w = 0; w < session.worker_count(); ++w) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const auto& e : session.worker(w).events()) {
        if (!ers::obs::is_span(e.kind)) continue;
        const auto k = static_cast<std::size_t>(e.kind);
        sum[k] += e.dur;
        iv.emplace_back(e.ts, e.ts + e.dur);
        std::uint32_t name = n_rt_compute_;
        if (e.kind == EventKind::kLockWaitSpan) name = n_rt_wait_;
        if (e.kind == EventKind::kLockHoldSpan) name = n_rt_hold_;
        if (e.kind == EventKind::kSleepSpan) name = n_rt_sleep_;
        spans_.add(name, call_span, e.ts + offset, e.ts + offset + e.dur);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t reach = 0;
      for (auto [a, b] : iv) {
        a = std::max(a, reach);
        if (b > a) covered += b - a;
        reach = std::max(reach, b);
      }
    }
    static_assert(static_cast<int>(EventKind::kComputeSpan) == 0 &&
                  static_cast<int>(EventKind::kLockWaitSpan) == 1 &&
                  static_cast<int>(EventKind::kLockHoldSpan) == 2 &&
                  static_cast<int>(EventKind::kSleepSpan) == 3);
    j.field("tr_window_ns", window)
        .field("tr_compute_ns", sum[0])
        .field("tr_lock_wait_ns", sum[1])
        .field("tr_lock_hold_ns", sum[2])
        .field("tr_sleep_ns", sum[3])
        .field("tr_covered_ns", covered)
        .field("tr_dropped", session.total_dropped());
  }

  /// Per-layer probes, all on this input: a single-thread engine drive that
  /// times each acquire / compute / commit call, a depth-1 4-thread solve
  /// (fixed per-solve cost), one transposition-table allocation at ABDADA's
  /// default size, and the leaf-kernel batches.
  void probe(std::size_t input, JsonObject& j, std::uint32_t parent) {
    const G& g = games_[input];
    std::uint64_t acquire_ns = 0, commit_ns = 0, compute_ns = 0;
    std::uint64_t expand_ns = 0, expands = 0, units = 0;
    std::vector<std::uint64_t> unit_ns;
    Value value = 0;
    {
      Scope probe_span(spans_, n_probe_, parent);
      const std::uint32_t ps = probe_span.handle();
      ers::core::Engine<G> engine(g, set_.engine());
      while (!engine.done()) {
        std::uint64_t a0 = now_ns();
        const std::uint32_t sa = spans_.open(n_acquire_, ps);
        const std::optional<ers::core::WorkItem> item = engine.acquire();
        spans_.close(sa);
        std::uint64_t a1 = now_ns();
        acquire_ns += a1 - a0;
        if (!item) break;
        const bool serial = item->kind != ers::core::WorkKind::kExpand &&
                            item->kind != ers::core::WorkKind::kPromote;
        const std::uint32_t sc =
            spans_.open(serial ? n_unit_ : n_expand_, ps);
        auto res = engine.compute(*item);
        spans_.close(sc);
        const std::uint64_t a2 = now_ns();
        const std::uint32_t sm = spans_.open(n_commit_, ps);
        engine.commit(*item, std::move(res));
        spans_.close(sm);
        const std::uint64_t a3 = now_ns();
        compute_ns += a2 - a1;
        commit_ns += a3 - a2;
        ++units;
        if (serial) unit_ns.push_back(a2 - a1);
        if (item->kind == ers::core::WorkKind::kExpand) {
          expand_ns += a2 - a1;
          ++expands;
        }
      }
      value = engine.root_value();
    }
    Check c = check(input, value, nullptr);

    std::uint64_t fixed_ns = 0;
    {
      const Value d1 = ers::alpha_beta_search(g, 1, set_.ordering).value;
      Scope s(spans_, n_fixed_, parent);
      const std::uint64_t t0 = now_ns();
      const auto r = ers::parallel_er_threads(g, set_.engine(1), 4);
      fixed_ns = now_ns() - t0;
      if (c.ok && r.value != d1) {
        c.ok = false;
        c.why = "depth-1 value " + std::to_string(r.value) + " != " +
                std::to_string(d1);
      }
    }
    std::uint64_t tt_ns = 0;
    {
      Scope s(spans_, n_tt_, parent);
      const std::uint64_t t0 = now_ns();
      { ers::ConcurrentTranspositionTable tt(abdada_opts().table_log2); }
      tt_ns = now_ns() - t0;
    }
    finish(j, acquire_ns + compute_ns + commit_ns, c, input, "probe");
    j.field("acquire_ns", acquire_ns)
        .field("commit_ns", commit_ns)
        .field("compute_ns", compute_ns)
        .field("expand_ns", expand_ns)
        .field("expands", expands)
        .field("units", units)
        .raw("unit_ns", json_list(unit_ns))
        .field("fixed_ns", fixed_ns)
        .field("tt_alloc_ns", tt_ns);
    kernel_probe(g, input_seed(opt_.seed, opt_.workload + "/kernel",
                               static_cast<int>(input)),
                 spans_, parent, j);
  }

  const Options& opt_;
  std::vector<G> games_;
  Setting set_;
  SpanLog spans_;
  // Traced runs only: the session's rings are ~12 MiB.
  std::unique_ptr<ers::obs::TraceSession> session_ =
      opt_.trace ? std::make_unique<ers::obs::TraceSession>(4) : nullptr;
  std::vector<Value> oracle_;
  std::vector<std::vector<Position>> root_kids_;
  std::vector<std::vector<std::optional<Value>>> move_values_;
  std::uint32_t check_span_ = 0;
  std::uint32_t n_solve_, n_check_, n_er_, n_ab_, n_abdada_, n_check_ab_,
      n_probe_, n_acquire_, n_commit_, n_unit_, n_expand_, n_fixed_, n_tt_,
      n_rt_compute_, n_rt_wait_, n_rt_hold_, n_rt_sleep_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.workload == "othello_d7") {
    Setting set;
    set.depth = 7;
    set.ordering.sort_by_static_value = true;
    set.ordering.max_sort_ply = 6;  // paper §7: sorted down to ply 5
    return Runner<ers::othello::OthelloGame>(o, othello_inputs(o), set).run();
  }
  if (o.workload == "random_d10" || o.workload == "random_wide_d7") {
    const bool wide = o.workload == "random_wide_d7";
    Setting set;
    set.depth = wide ? 7 : 10;
    return Runner<ers::UniformRandomTree>(
               o, random_inputs(o, wide ? 8 : 4, set.depth), set)
        .run();
  }
  usage_error("unknown workload");
}
