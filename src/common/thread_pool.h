#ifndef SKYLINE_COMMON_THREAD_POOL_H_
#define SKYLINE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace skyline {

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
///
/// The pool is the process's unit of parallelism for the engine: the
/// external sorter sorts in-memory runs and merges run groups on it, and
/// the block-parallel SFS filter runs one task per input block. Tasks may
/// submit further tasks (the new task is queued; the submitter does not
/// block), but a task must never *wait* on a task it submitted to the same
/// pool — with every worker blocked in such a wait the queued task could
/// never start. Use ParallelFor for nested data-parallel loops instead:
/// its caller participates in the loop, so it never deadlocks even when
/// the pool is saturated.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: joins after finishing every queued task.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns a future for its result. Exceptions thrown
  /// by `fn` are captured and rethrown from future::get().
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  size_t num_threads() const { return threads_.size(); }

  /// Tasks queued but not yet claimed by a worker (for tests/telemetry).
  size_t QueueDepth() const;

  /// Cumulative busy-worker accounting since construction. Monotone;
  /// sample before and after a phase and divide the busy-nanosecond delta
  /// by the phase's wall time to get the phase's average busy workers
  /// (pool workers only — a caller participating via ParallelFor adds up
  /// to one more worker the totals do not see).
  struct BusyTotals {
    uint64_t busy_nanos = 0;
    uint64_t tasks_executed = 0;
  };
  BusyTotals Totals() const {
    return {busy_nanos_.load(std::memory_order_relaxed),
            tasks_executed_.load(std::memory_order_relaxed)};
  }

 private:
  void Enqueue(std::function<void()> fn);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutting_down_ = false;
  std::atomic<uint64_t> busy_nanos_{0};
  std::atomic<uint64_t> tasks_executed_{0};
};

/// Number of workers to use for `threads` requested: 0 means "one per
/// hardware thread", anything else is taken literally.
size_t ResolveThreadCount(size_t threads);

/// Pure clamp policy: resolves `threads` (0 = one per hardware thread)
/// against a machine with `hardware` hardware threads and never returns
/// more than `hardware` (or less than 1). Oversubscribing cores makes the
/// block-parallel filter strictly slower — each extra block re-scans the
/// stream and adds a list to the merge — so requests
/// beyond the hardware are capped, and a cap of 1 should send callers to
/// the sequential algorithm.
size_t ClampThreads(size_t threads, size_t hardware);

/// ClampThreads against this machine's std::thread::hardware_concurrency()
/// (treated as 1 when the runtime reports 0).
size_t ClampThreadsToHardware(size_t threads);

/// Runs `fn(i)` for every i in [0, count), distributing iterations over
/// `pool` (which may be null → fully inline). The calling thread always
/// participates, claiming iterations from a shared counter, so the loop
/// completes even if the pool is saturated or `fn` is called from inside a
/// pool task; helper tasks that start after the counter is exhausted are
/// no-ops. Blocks until every iteration has finished. The first exception
/// thrown by any iteration is rethrown in the caller (remaining iterations
/// are abandoned, in-flight ones finish).
///
/// `grain` is the number of consecutive iterations claimed at once; tune it
/// so one grain amortizes the atomic fetch (default 1 suits coarse bodies).
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& fn, size_t grain = 1);

}  // namespace skyline

#endif  // SKYLINE_COMMON_THREAD_POOL_H_
