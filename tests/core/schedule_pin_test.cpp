// Pins the engine's single-threaded schedule to fixed values.  A
// single-threaded driver makes the engine deterministic: the same tree and
// config give the same sequence of acquired units, the same counters and
// the same answer.  The values below were recorded once and must never be
// edited: a scheduler change that is meant to keep the schedule (a
// refactor, a deletion of unused machinery) has to pass this test as it
// stands.  A change that is meant to move the schedule fails here on
// purpose and records its new values in a new test, with the reason.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"

namespace ers {
namespace {

/// What one run pins.  `order_hash` folds every acquired (node, kind) pair
/// in acquisition order; `best_move` is the index of the engine's best
/// root child in generation order (-1: none).
struct Pin {
  Value value = 0;
  int best_move = -1;
  std::uint64_t units = 0;
  std::uint64_t nodes = 0;
  std::uint64_t cutoffs_at_pop = 0;
  std::uint64_t promotions_mandatory = 0;
  std::uint64_t promotions_speculative = 0;
  std::uint64_t dead_drops = 0;
  std::uint64_t order_hash = 0;
};

/// FNV-1a over the acquired units.
class OrderHash {
 public:
  void add(const core::WorkItem& item) {
    mix(item.node);
    mix(static_cast<std::uint64_t>(item.kind));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

template <Game G>
int best_move_index(const G& g,
                    const std::optional<typename G::Position>& move) {
  if (!move) return -1;
  std::vector<typename G::Position> kids;
  g.generate_children(g.root(), kids);
  for (std::size_t i = 0; i < kids.size(); ++i)
    if (kids[i] == *move) return static_cast<int>(i);
  ADD_FAILURE() << "best move is no root child";
  return -2;
}

template <Game G>
Pin pin_of(const G& g, Value value, const core::EngineStats& s,
           const std::optional<typename G::Position>& move,
           std::uint64_t order_hash) {
  return Pin{value,
             best_move_index(g, move),
             s.units_processed,
             s.search.nodes_generated(),
             s.cutoffs_at_pop,
             s.promotions_mandatory,
             s.promotions_speculative,
             s.dead_items_dropped,
             order_hash};
}

/// Drive the engine to completion on one thread: acquire a unit, compute
/// it, commit it.
template <Game G>
Pin drive(const G& g, const core::EngineConfig& cfg) {
  core::Engine<G> engine(g, cfg);
  OrderHash order;
  while (!engine.done()) {
    const auto item = engine.acquire();
    if (!item) break;
    order.add(*item);
    engine.commit(*item, engine.compute(*item));
  }
  EXPECT_TRUE(engine.done()) << "the driver ran out of work";
  return pin_of(g, engine.root_value(), engine.stats(),
                engine.best_root_position(), order.value());
}

void expect_pin(const Pin& got, const Pin& want, const std::string& name) {
  EXPECT_EQ(got.value, want.value) << name;
  EXPECT_EQ(got.best_move, want.best_move) << name;
  EXPECT_EQ(got.units, want.units) << name;
  EXPECT_EQ(got.nodes, want.nodes) << name;
  EXPECT_EQ(got.cutoffs_at_pop, want.cutoffs_at_pop) << name;
  EXPECT_EQ(got.promotions_mandatory, want.promotions_mandatory) << name;
  EXPECT_EQ(got.promotions_speculative, want.promotions_speculative) << name;
  EXPECT_EQ(got.dead_drops, want.dead_drops) << name;
  EXPECT_EQ(got.order_hash, want.order_hash) << name;
  // Guard against a vacuous pin: every pinned config cuts work at pop time.
  EXPECT_GT(got.cutoffs_at_pop, 0u) << name;
}

TEST(SchedulePin, DefaultConfigOnRandomTrees) {
  const core::EngineConfig cfg;  // depth 7, cutover 2, alpha-beta kernel
  expect_pin(drive(UniformRandomTree(8, 7, 7), cfg),
             Pin{6496, 1, 25, 77825, 7, 1, 0, 0, 0xec64365a8908b64eull},
             "random b=8 d=7 seed=7");
  expect_pin(drive(UniformRandomTree(8, 7, 23), cfg),
             Pin{6209, 2, 77, 156323, 1, 1, 0, 0, 0xc0c52b044a2b5dfeull},
             "random b=8 d=7 seed=23");
}

TEST(SchedulePin, DefaultConfigOnSortedOthello) {
  core::EngineConfig cfg;
  cfg.ordering.sort_by_static_value = true;
  cfg.ordering.max_sort_ply = 6;
  const othello::OthelloGame g(othello::paper_position(1));
  expect_pin(drive(g, cfg),
             Pin{374, 5, 48, 28044, 5, 1, 0, 0, 0x59239bba1336be97ull},
             "othello O1 d=7 sorted");
}

TEST(SchedulePin, SerialErKernelAtCutoverFive) {
  core::EngineConfig cfg;
  cfg.serial_depth = 5;
  cfg.unit_kernel = core::UnitKernel::kSerialEr;
  expect_pin(drive(UniformRandomTree(8, 7, 11), cfg),
             Pin{6300, 5, 8241, 106073, 181, 166, 0, 166,
                 0x5c50a9089d191348ull},
             "random b=8 d=7 seed=11 serial ER");
}

TEST(SchedulePin, SimulatorAtSixteenProcessors) {
  const UniformRandomTree g(8, 7, 7);
  const auto r = parallel_er_sim(g, core::EngineConfig{}, 16);
  // The simulator interleaves 16 virtual processors, so its pin is the
  // counters and the simulated makespan rather than an acquisition order.
  expect_pin(pin_of(g, r.value, r.engine, r.best_move, 0),
             Pin{6496, 1, 48, 131644, 4, 0, 5, 0, 0},
             "sim P=16 random b=8 d=7 seed=7");
  EXPECT_EQ(r.metrics.makespan, 97932u);
  EXPECT_EQ(r.metrics.units, 48u);
}

}  // namespace
}  // namespace ers
