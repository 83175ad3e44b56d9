#ifndef PGIVM_SUPPORT_THREAD_POOL_H_
#define PGIVM_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pgivm {

/// A persistent pool of worker threads for fork-join data parallelism.
///
/// The pool is built once and reused for many (typically very many, short)
/// parallel regions — the Rete wave scheduler dispatches one region per
/// topological level, so dispatch latency per region matters more than raw
/// throughput. Workers spin briefly on the region generation counter before
/// parking on a condition variable, which makes back-to-back waves (the
/// steady state of batched propagation) dispatch without a futex round
/// trip.
///
/// Work distribution is dynamic: tasks are claimed index-at-a-time from a
/// shared atomic cursor, so a region with one expensive task and many cheap
/// ones still balances. The calling thread participates as a claimant, which
/// both avoids an idle core and makes the pool usable with zero workers
/// (`threads == 1` degenerates to a serial loop with no synchronization).
///
/// Run() must not be called concurrently from several threads and must not
/// be re-entered from inside a task.
class ThreadPool {
 public:
  /// The largest parallelism a pool takes. Far above any machine this
  /// engine targets, and low enough that starting the workers cannot run
  /// the process out of threads (a failed std::thread start mid-constructor
  /// would terminate the process).
  static constexpr int kMaxThreads = 256;

  /// `threads` is the total parallelism including the calling thread, so
  /// `threads - 1` workers are spawned. Values are clamped to
  /// [1, kMaxThreads].
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes `task(i)` exactly once for every i in [0, n), distributed over
  /// the workers and the calling thread; returns when all n invocations
  /// have completed. Tasks must not throw.
  void Run(size_t n, const std::function<void(size_t)>& task);

  /// Total parallelism (workers + the calling thread).
  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  /// `num_threads` resolved against the machine: 0 (or negative) means
  /// "use the hardware concurrency"; the result is capped at kMaxThreads.
  static int ResolveThreadCount(int num_threads);

 private:
  void WorkerLoop();
  /// Claims and runs tasks of the current region until the cursor passes n.
  void Drain();

  std::vector<std::thread> workers_;
  /// Spin budget before parking: kSpinIterations when the pool fits the
  /// machine, 0 when oversubscribed (spinning would steal the cores the
  /// actual work needs).
  int spin_iterations_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers park here between regions
  std::condition_variable done_cv_;  // Run() parks here for stragglers
  std::atomic<bool> stopping_{false};
  /// Bumped (under mu_, so cv waits can't miss it) to publish a region;
  /// the release store also publishes n_/task_ to spinning workers.
  std::atomic<uint64_t> generation_{0};
  /// Workers still inside the current region.
  std::atomic<int> active_workers_{0};

  // Region state: written by Run() before the generation bump, read by
  // workers after they observe the bump (acquire).
  size_t n_ = 0;
  const std::function<void(size_t)>* task_ = nullptr;
  std::atomic<size_t> next_{0};
};

}  // namespace pgivm

#endif  // PGIVM_SUPPORT_THREAD_POOL_H_
