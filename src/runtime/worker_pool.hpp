#pragma once
// Persistent workers for the parallel drivers (DESIGN.md §19): the thread
// executor (parallel ER) and parallel ABDADA start no thread per search.
//
// run_on_workers(n, job) calls job(0) on the calling thread and job(1) ..
// job(n-1) on that thread's helpers, which are created on first need, park
// on a condition variable between runs (never spinning, so they take no
// core from the serial solves a benchmark interleaves with parallel ones),
// and are joined when the calling thread exits.  Each calling thread owns
// its helpers, so concurrent callers never share or wait for each other's.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ers::runtime {

namespace detail {

/// One calling thread's helpers.  Grows to the widest run requested and
/// never shrinks; the destructor joins every helper.
class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool() {
    {
      std::scoped_lock lk(mu_);
      quit_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  template <typename Job>
  void run(int n, Job& job) {
    ERS_CHECK(n >= 1);
    // A nested call would wait for helpers that are busy running the outer
    // job (and, for index 0, for itself).
    ERS_CHECK(!running_ && "run_on_workers called from inside a job");
    running_ = true;
    try {
      dispatch(n, job);
    } catch (...) {
      running_ = false;
      throw;
    }
    running_ = false;
  }

 private:
  template <typename Job>
  void dispatch(int n, Job& job) {
    if (n == 1) {
      job(0);
      return;
    }
    // Only this thread writes generation_, so it may read it unlocked.
    while (helpers_.size() < static_cast<std::size_t>(n - 1)) {
      const int index = static_cast<int>(helpers_.size()) + 1;
      helpers_.emplace_back([this, index, seen = generation_] {
        helper_loop(index, seen);
      });
    }
    {
      std::scoped_lock lk(mu_);
      job_ = &job;
      invoke_ = [](void* j, int i) { (*static_cast<Job*>(j))(i); };
      width_ = n;
      pending_ = n - 1;
      ++generation_;
    }
    wake_.notify_all();
    // The helpers are running a job that lives in the caller's frame, so
    // the caller waits for them before it unwinds, even when job(0) threw.
    try {
      job(0);
    } catch (...) {
      record(std::current_exception());
    }
    std::exception_ptr error;
    {
      std::unique_lock lk(mu_);
      done_.wait(lk, [&] { return pending_ == 0; });
      job_ = nullptr;
      error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

  /// Helper `index` runs job(index) of every run at least index + 1 wide.
  /// `seen` is the run generation current when it was created.
  void helper_loop(int index, std::uint64_t seen) {
    std::unique_lock lk(mu_);
    for (;;) {
      wake_.wait(lk, [&] { return quit_ || generation_ != seen; });
      if (quit_) return;
      seen = generation_;
      if (index >= width_) continue;
      void* const job = job_;
      void (*const invoke)(void*, int) = invoke_;
      lk.unlock();
      try {
        invoke(job, index);
      } catch (...) {
        record(std::current_exception());
      }
      lk.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  /// Keep the first exception of a run; the caller rethrows it.
  void record(std::exception_ptr e) {
    std::scoped_lock lk(mu_);
    if (!error_) error_ = std::move(e);
  }

  std::mutex mu_;
  std::condition_variable wake_;  ///< helpers: a new run or quit
  std::condition_variable done_;  ///< caller: pending_ reached 0
  // Guarded by mu_.
  std::uint64_t generation_ = 0;  ///< bumped once per multi-worker run
  int width_ = 0;                 ///< workers in the current run
  int pending_ = 0;               ///< helpers still running the current job
  bool quit_ = false;
  void* job_ = nullptr;
  void (*invoke_)(void*, int) = nullptr;
  std::exception_ptr error_;
  // Touched only by the owning thread.
  bool running_ = false;
  /// Declared last: helpers use every member above until they are joined.
  std::vector<std::thread> helpers_;
};

/// The calling thread's pool: one per thread, whatever the job type.
inline WorkerPool& this_thread_pool() {
  static thread_local WorkerPool pool;
  return pool;
}

}  // namespace detail

/// Call job(0) .. job(n-1) concurrently, job(0) on the calling thread, and
/// return when all have returned.  If any call throws, the first exception
/// is rethrown here after every other call has returned.  `n == 1` runs
/// job(0) inline and wakes nobody.  Must not be called from inside a job
/// running on the same thread.
template <typename Job>
void run_on_workers(int n, Job& job) {
  detail::this_thread_pool().run(n, job);
}

}  // namespace ers::runtime
