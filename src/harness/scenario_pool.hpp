#pragma once

// ScenarioPool: a work-stealing thread pool for embarrassingly parallel
// simulation sweeps.
//
// The paper's headline numbers are sweeps — hundreds of verification runs
// and FFT tests — and every scenario owns a fully independent sim::Engine
// (its own clock, event queue and Rng).  The pool shards those scenarios
// across cores under a strict determinism contract:
//
//   * one Engine / Rng per task, no shared mutable state between tasks;
//   * results are aggregated by submission index, never by completion
//     order — so a sweep produces byte-identical tables at 1 thread and
//     at N threads;
//   * an exception thrown by a task is re-thrown to the caller; when
//     several tasks throw, the one with the lowest submission index wins
//     (again independent of thread count).
//
// Scheduling: each worker owns a deque of task indices, seeded with a
// contiguous block of the batch.  Workers pop their own deque from the
// front and steal from the back of the busiest victim when empty, so an
// uneven sweep (one huge scenario amid many small ones) still finishes
// in max(task) rather than sum(block).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace nbctune::harness {

/// Live snapshot of a pool's activity gauges (the obs sampler polls
/// this; see src/obs).  submitted/completed/steals are cumulative over
/// the pool's lifetime; queued and inflight describe the current batch.
struct PoolStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t steals = 0;        ///< tasks taken from a victim's deque
  std::size_t queued = 0;          ///< indices still sitting in shard deques
  std::size_t inflight = 0;        ///< submitted - completed (running batch)
};

/// Observer of pool batch lifecycles.  on_batch_begin fires on the
/// submitting thread before any task runs; implementations must be
/// thread-safe (tasks of a batch may already be executing while it runs).
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  virtual void on_batch_begin(std::size_t tasks) = 0;
  /// A task body threw (crash containment): the batch keeps draining and
  /// the pool rethrows the lowest-index error only after it has.  Fires
  /// on the worker that ran the task — implementations must be
  /// thread-safe.  `what` is the exception message ("unknown error" for
  /// non-std exceptions).
  virtual void on_task_failed(std::size_t index, const char* what) {
    (void)index;
    (void)what;
  }
};

class ScenarioPool {
 public:
  /// threads <= 0 resolves via NBCTUNE_THREADS, then the hardware
  /// concurrency.  threads == 1 runs every batch inline on the caller.
  explicit ScenarioPool(int threads = 0);
  ~ScenarioPool();

  ScenarioPool(const ScenarioPool&) = delete;
  ScenarioPool& operator=(const ScenarioPool&) = delete;

  /// Worker count this pool executes with (>= 1).
  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Resolve a requested thread count: positive values pass through,
  /// otherwise $NBCTUNE_THREADS, otherwise std::thread::hardware_concurrency.
  static int resolve_threads(int requested) noexcept;

  /// Run fn(0) .. fn(n-1), blocking until all have finished.  Tasks must
  /// be independent; every index runs exactly once.  If any task throws,
  /// the remaining tasks still run and the exception from the lowest
  /// index is re-thrown here.  Re-entrant calls (a task dispatching a
  /// sub-batch on its own pool) execute inline on the calling thread —
  /// same contract, no deadlock.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Map items through `make` (item, index) -> R, returning results in
  /// submission order.
  template <typename R, typename Item, typename F>
  std::vector<R> map(const std::vector<Item>& items, F&& make) {
    std::vector<R> out(items.size());
    run_indexed(items.size(),
                [&](std::size_t i) { out[i] = make(items[i], i); });
    return out;
  }

  /// Install a batch-lifecycle observer (nullptr to detach); read
  /// atomically at batch submission.
  void set_observer(PoolObserver* o) noexcept {
    observer_.store(o, std::memory_order_release);
  }

  /// Snapshot the activity gauges.  Cheap (three atomic loads) except for
  /// the queue-depth scan, which briefly locks each shard — intended for
  /// sampling rates, not hot loops.
  [[nodiscard]] PoolStats stats() const;

 private:
  struct Impl;
  Impl* impl_;  // pimpl: keeps <thread>/<mutex> out of this header
  int threads_;
  std::atomic<bool> busy_{false};  // batch in flight (run_indexed re-entrancy)
  std::atomic<PoolObserver*> observer_{nullptr};
  // Cumulative gauges; maintained by both the pooled and inline paths.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace nbctune::harness
