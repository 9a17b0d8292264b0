// Deterministic parallel batch execution.
//
// Two kinds of batch run here.  The heavy harnesses (the crash-point sweep,
// the Equation-1 consistency table, the fault-rate sweep, the
// dataset-scaling ablation, the fuzz matrices) fan out whole simulations of
// milliseconds and up.  serve() fans out each dispatch wave: a handful of
// timing-only engine replays of ~60 µs each, wave after wave, on one pool
// it keeps for the whole call.  A functional engine run that is not itself
// a batch task also owns a pool, for its kernels' data-parallel pieces
// (in_batch() below).  `Pool` is a work-stealing pool whose calling
// thread is one of its workers, and `run_batch` the entry point both use:
// fan N independent tasks across hardware threads while guaranteeing
// byte-identical output to the serial order.
//
// The determinism contract:
//   * every task owns its state — its SystemModel (device, FTL, queues),
//     RNG, fault plan and trace buffer are constructed inside the task;
//     nothing mutable is shared between tasks;
//   * results land in a pre-sized vector slot indexed by submission order,
//     so collection order is independent of scheduling order;
//   * `jobs == 1` runs the tasks inline on the calling thread, in index
//     order — bit-for-bit the serial behaviour;
//   * exceptions are captured per task; after the batch settles, the
//     lowest-index exception is rethrown (again independent of thread
//     timing).  Workers always join: a throwing task never leaks a thread.
//
// Scheduling is work-stealing over per-worker deques: indices are dealt
// round-robin at submission, each worker drains its own deque from the
// front and steals from the back of a sibling when it runs dry.  Worker 0
// is the thread that called parallel_for: it deals, wakes only as many
// parked threads as the batch can use, and then drains the deques itself
// before it waits for the stragglers.  A pool of k workers therefore starts
// k − 1 threads, a one-task batch never wakes a thread, and no batch waits
// on a wakeup to make progress.  A mutex per deque is uncontended at these
// batch sizes.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace isp::exec {

/// Worker count used when the caller does not choose: hardware concurrency,
/// with a floor of 1 when the runtime cannot tell.
[[nodiscard]] unsigned default_jobs();

/// Threads every Pool in this process has started so far (each pool starts
/// workers() − 1).  Lets tests check how many threads a call created.
[[nodiscard]] std::uint64_t threads_started();

/// True while the calling thread runs a task of a batch: a task of any
/// Pool::parallel_for (on whichever thread runs it) or of run_batch's inline
/// path.  A functional engine run that finds it set keeps its kernels
/// inline, so batches never nest thread pools (docs/architecture.md,
/// "Kernel parallelism").
[[nodiscard]] bool in_batch();

/// Marks the calling thread as inside a batch for the scope's lifetime.
class BatchScope {
 public:
  BatchScope();
  ~BatchScope();

  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

 private:
  bool outer_;
};

/// Work-stealing thread pool with the caller as worker 0.  One instance
/// serves one caller at a time: parallel_for is not reentrant, and a task
/// that calls parallel_for on the pool running it fails with an isp::Error
/// (rethrown as that task's exception).  Threads persist across batches and
/// are joined by the destructor.
class Pool {
 public:
  /// `workers` counts the calling thread: the pool starts workers − 1
  /// threads, and Pool(1) starts none.
  explicit Pool(unsigned workers = default_jobs());
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(queues_.size());
  }

  /// Run task(i) for every i in [0, n), blocking until the batch settles.
  /// The calling thread runs tasks too; with one worker it runs them all,
  /// in index order.  Exceptions thrown by tasks are captured; once every
  /// task has either finished or thrown, the lowest-index exception is
  /// rethrown.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& task);

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::size_t> items;
  };

  void worker_loop(std::size_t self);
  /// Run tasks popped from `self`'s deque, then stolen ones, until every
  /// deque is empty.
  void drain(std::size_t self);
  bool pop_own(std::size_t self, std::size_t& index);
  bool steal(std::size_t self, std::size_t& index);
  void run_one(std::size_t index);

  // Batch handshake.  All epoch/remaining transitions happen under mu_.
  // Indices are dealt while holding both mu_ and each deque's own mutex:
  // a straggler worker from the previous batch may still be scanning the
  // deques (it decrements remaining_ before it re-parks), so per-queue
  // locking is what makes dealing safe against a concurrent pop — and its
  // release/acquire pairing publishes the task_/errors_ writes to whichever
  // worker pops each index, epoch-woken or straggler alike.
  std::mutex mu_;
  std::condition_variable batch_cv_;  // workers: a new batch is ready
  std::condition_variable done_cv_;   // caller: the batch has settled
  std::uint64_t epoch_ = 0;
  std::size_t remaining_ = 0;
  bool shutdown_ = false;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::vector<std::exception_ptr>* errors_ = nullptr;

  // queues_[0] belongs to the calling thread; threads_[w − 1] runs
  // worker w.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
};

/// Fan `fn` over [0, n) on a caller-owned pool and collect the results in
/// submission order.  `fn` must be safe to call concurrently from several
/// threads, which in this codebase means: construct every mutable thing
/// (SystemModel, EngineOptions, stores, RNGs) inside the call.  The result
/// type must be default-constructible and must not be `bool`
/// (std::vector<bool> packs bits, so concurrent per-element writes would
/// race — return a struct).
template <typename Fn>
auto run_batch(Pool& pool, std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  static_assert(std::is_default_constructible_v<R>,
                "run_batch results are collected into a pre-sized vector");
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> packs bits; return a struct instead");
  std::vector<R> results(n);
  pool.parallel_for(n, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

/// One-shot form: the same contract on a pool of min(jobs, n) workers that
/// lives for this batch only.  `jobs <= 1` (or a single task) runs inline,
/// in order, without building a pool.
template <typename Fn>
auto run_batch(std::size_t n, Fn&& fn, unsigned jobs = default_jobs())
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  if (jobs <= 1 || n <= 1) {
    const BatchScope batch;
    std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>>
        results(n);
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }
  Pool pool(static_cast<unsigned>(std::min<std::size_t>(jobs, n)));
  return run_batch(pool, n, fn);
}

/// Convenience overload: one task per config, results in config order.
template <typename Config, typename Fn>
auto run_batch(const std::vector<Config>& configs, Fn&& fn,
               unsigned jobs = default_jobs()) {
  return run_batch(
      configs.size(),
      [&](std::size_t i) { return fn(configs[i]); }, jobs);
}

}  // namespace isp::exec
