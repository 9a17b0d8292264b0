#include "exec/pool.hpp"

#include <atomic>

#include "common/error.hpp"

namespace isp::exec {

namespace {
std::atomic<std::uint64_t> g_threads_started{0};
thread_local bool t_in_batch = false;
}  // namespace

bool in_batch() { return t_in_batch; }

BatchScope::BatchScope() : outer_(t_in_batch) { t_in_batch = true; }

BatchScope::~BatchScope() { t_in_batch = outer_; }

unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

std::uint64_t threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

Pool::Pool(unsigned workers) {
  ISP_CHECK(workers >= 1, "pool needs at least one worker");
  queues_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  // Worker 0 is whichever thread calls parallel_for.
  threads_.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
    g_threads_started.fetch_add(1, std::memory_order_relaxed);
  }
}

Pool::~Pool() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  batch_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Pool::parallel_for(std::size_t n,
                        const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  std::vector<std::exception_ptr> errors(n);
  const std::size_t k = queues_.size();
  {
    std::lock_guard lock(mu_);
    ISP_CHECK(task_ == nullptr, "parallel_for is not reentrant");
    task_ = &task;
    errors_ = &errors;
    remaining_ = n;
    // Deal indices round-robin, locking each deque while we fill it.  A
    // straggler worker from the previous batch can still be scanning the
    // deques here (it decrements remaining_ before it re-parks), so the
    // deques are NOT exclusively ours.  Holding q.mu makes the push safe
    // against a concurrent pop, and its release/acquire pairing also
    // publishes the task_/errors_ writes above to any worker that pops one
    // of these indices — including a straggler that never saw the epoch
    // bump.
    for (std::size_t w = 0; w < k && w < n; ++w) {
      WorkerQueue& q = *queues_[w];
      std::lock_guard qlock(q.mu);
      for (std::size_t i = w; i < n; i += k) q.items.push_back(i);
    }
    ++epoch_;
  }
  // Wake one thread per deque beyond the caller's own.  Progress never
  // depends on a wakeup — the caller drains every deque itself — so a
  // thread that sleeps through the batch costs wall time, not correctness.
  for (std::size_t w = 1; w < std::min(n, k); ++w) batch_cv_.notify_one();
  drain(0);
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    task_ = nullptr;
    errors_ = nullptr;
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void Pool::worker_loop(std::size_t self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      batch_cv_.wait(lock,
                     [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    drain(self);
  }
}

void Pool::drain(std::size_t self) {
  std::size_t index = 0;
  while (pop_own(self, index) || steal(self, index)) run_one(index);
}

bool Pool::pop_own(std::size_t self, std::size_t& index) {
  WorkerQueue& q = *queues_[self];
  std::lock_guard lock(q.mu);
  if (q.items.empty()) return false;
  index = q.items.front();
  q.items.pop_front();
  return true;
}

bool Pool::steal(std::size_t self, std::size_t& index) {
  for (std::size_t d = 1; d < queues_.size(); ++d) {
    WorkerQueue& q = *queues_[(self + d) % queues_.size()];
    std::lock_guard lock(q.mu);
    if (q.items.empty()) continue;
    index = q.items.back();
    q.items.pop_back();
    return true;
  }
  return false;
}

void Pool::run_one(std::size_t index) {
  try {
    const BatchScope batch;
    (*task_)(index);
  } catch (...) {
    (*errors_)[index] = std::current_exception();
  }
  std::lock_guard lock(mu_);
  if (--remaining_ == 0) done_cv_.notify_all();
}

}  // namespace isp::exec
