#include "support/thread_pool.h"

#include <algorithm>

namespace pgivm {

namespace {

/// How long waiters spin before falling back to the condition variable.
/// Batched propagation dispatches a region every few microseconds while a
/// delta is in flight; a short spin catches the next region (or the last
/// straggler) without a sleep/wake round trip, while idle networks still
/// park their workers.
constexpr int kSpinIterations = 8192;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

int ThreadPool::ResolveThreadCount(int num_threads) {
  return std::clamp(num_threads, 1, kMaxThreads);
}

ThreadPool::ThreadPool(int threads) {
  threads = ResolveThreadCount(threads);
  unsigned hw = std::thread::hardware_concurrency();
  spin_iterations_ =
      (hw != 0 && static_cast<unsigned>(threads) <= hw) ? kSpinIterations : 0;
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Drain() {
  for (;;) {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return;
    (*task_)(i);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    // Fast path: the next region usually arrives within the spin window.
    bool dispatched = false;
    for (int spin = 0; spin < spin_iterations_; ++spin) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (generation_.load(std::memory_order_acquire) != seen) {
        dispatched = true;
        break;
      }
      CpuRelax();
    }
    if (!dispatched) {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_acquire) != seen;
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
    }
    seen = generation_.load(std::memory_order_acquire);
    Drain();
    if (active_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last straggler: wake Run() if it gave up spinning. The empty
      // critical section orders the notify after Run() starts waiting.
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& task) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Serial degenerate case: no cursor, no wakeups.
    for (size_t i = 0; i < n; ++i) task(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    n_ = n;
    task_ = &task;
    next_.store(0, std::memory_order_relaxed);
    active_workers_.store(static_cast<int>(workers_.size()),
                          std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
  Drain();  // the calling thread claims tasks too
  for (int spin = 0; spin < spin_iterations_; ++spin) {
    if (active_workers_.load(std::memory_order_acquire) == 0) {
      task_ = nullptr;
      return;
    }
    CpuRelax();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return active_workers_.load(std::memory_order_acquire) == 0;
  });
  task_ = nullptr;
}

}  // namespace pgivm
