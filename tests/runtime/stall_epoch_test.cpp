// Liveness of the thread executor's stall check.  A scripted engine forces
// the interleaving a free-running multicore search hits only by chance:
//
//   1. worker Y's global acquire misses, and returns only after peer X's
//      commit of unit 1 has queued unit 2;
//   2. X drops its in_flight claim to 0 and enters done(), where the script
//      holds it until Y has decided;
//   3. Y reads in_flight == 0 with the engine not done.
//
// Step 3 is not a stall — unit 2 is queued — so Y must retry its acquire
// instead of aborting the run.  Every scripted wait is bounded, so an
// executor that takes another path fails the test instead of hanging it.

#include "runtime/thread_executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

namespace ers {
namespace {

/// Two units: committing unit 1 queues unit 2, committing unit 2 finishes
/// the search.  Implements the single-unit executor protocol.
class ScriptedEngine {
 public:
  struct Item {
    int unit = 0;
  };
  struct Result {
    int unit = 0;
  };

  [[nodiscard]] std::size_t queued_count() const {
    std::scoped_lock lk(mu_);
    return queue_.size();
  }

  /// While unit 1 is in flight, the first acquire that finds nothing queued
  /// waits for unit 1's commit and then reports the miss it saw before it.
  [[nodiscard]] std::optional<Item> acquire() {
    std::unique_lock lk(mu_);
    note_decision();
    if (!queue_.empty()) return pop();
    if (unit1_held_ && !missed_) {
      missed_ = true;
      y_ = std::this_thread::get_id();
      cv_.notify_all();
      wait(lk, [&] { return unit1_applied_; });
      awaiting_verdict_ = true;
    }
    return std::nullopt;
  }

  [[nodiscard]] Result compute(const Item& item) {
    if (item.unit == 1) {
      // Hold unit 1 until a peer's acquire is inside its scripted miss.
      std::unique_lock lk(mu_);
      wait(lk, [&] { return missed_; });
    }
    return Result{item.unit};
  }

  void commit(const Item& item, const Result& /*result*/) { apply(item.unit); }

  /// The committer's first done() after unit 1 runs just after its
  /// in_flight drop: park it there until the missed acquirer decides.  The
  /// missed acquirer's next done() — its pre-stall check — waits until the
  /// committer is parked, so it reads in_flight == 0.
  [[nodiscard]] bool done() {
    std::unique_lock lk(mu_);
    const auto me = std::this_thread::get_id();
    if (me == x_ && !x_parked_) {
      x_parked_ = true;
      cv_.notify_all();
      wait(lk, [&] { return decided_; });
    } else if (me == y_ && awaiting_verdict_) {
      wait(lk, [&] { return x_parked_; });
      awaiting_verdict_ = false;
      verdict_pending_ = true;
    }
    return done_;
  }

  /// Reached through the executor's report_stall.
  void debug_dump_unfinished(std::FILE* /*out*/) {
    std::scoped_lock lk(mu_);
    stall_reported_ = true;
    decided_ = true;
    cv_.notify_all();
  }

  /// True once the scripted interleaving ran in full: the miss happened,
  /// the committer parked in done() after its drop, and the missed
  /// acquirer came back with a decision before any wait timed out.
  [[nodiscard]] bool script_completed() const {
    std::scoped_lock lk(mu_);
    return missed_ && x_parked_ && decided_ && !timed_out_;
  }
  [[nodiscard]] bool stall_reported() const {
    std::scoped_lock lk(mu_);
    return stall_reported_;
  }

 private:
  static constexpr auto kScriptTimeout = std::chrono::seconds(10);

  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lk, Pred pred) {
    if (!cv_.wait_for(lk, kScriptTimeout, pred)) timed_out_ = true;
  }

  /// An acquire by the missed worker after its pre-stall check means it
  /// chose to retry; release the parked committer.
  void note_decision() {
    if (verdict_pending_ && std::this_thread::get_id() == y_) {
      verdict_pending_ = false;
      decided_ = true;
      cv_.notify_all();
    }
  }

  Item pop() {
    const Item it = queue_.front();
    queue_.pop_front();
    if (it.unit == 1) unit1_held_ = true;
    return it;
  }

  void apply(int unit) {
    std::scoped_lock lk(mu_);
    if (unit == 1) {
      queue_.push_back(Item{2});
      unit1_applied_ = true;
      x_ = std::this_thread::get_id();
    } else {
      done_ = true;
    }
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_{Item{1}};
  bool unit1_held_ = false;
  bool unit1_applied_ = false;
  bool missed_ = false;
  bool awaiting_verdict_ = false;  ///< missed, pre-stall check not yet made
  bool verdict_pending_ = false;   ///< pre-stall check made, no decision yet
  bool x_parked_ = false;
  bool decided_ = false;
  bool stall_reported_ = false;
  bool timed_out_ = false;
  bool done_ = false;
  std::thread::id x_;  ///< committed unit 1
  std::thread::id y_;  ///< took the scripted miss
};

TEST(ExecutorStall, SingleHeapRetriesAfterPeerCommitDropsInFlight) {
  ScriptedEngine engine;
  runtime::ThreadExecutor<ScriptedEngine> exec(2);
  const runtime::ThreadRunReport report = exec.run(engine);
  EXPECT_EQ(report.units, 2u);
  EXPECT_TRUE(engine.script_completed());
  EXPECT_FALSE(engine.stall_reported());
}

}  // namespace
}  // namespace ers
