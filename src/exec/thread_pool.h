#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace shedmon::exec {

// Optional observability hooks for a pool. Pointers are borrowed from an
// obs::MetricsRegistry owned by whoever owns the pool; null members disable
// the corresponding instrument. Updates go to lock-free striped cells and
// never influence scheduling, so instrumented and bare pools execute tasks
// identically.
struct PoolMetricsHooks {
  obs::Gauge* queue_depth = nullptr;       // tasks currently waiting in the queue
  obs::Counter* tasks_total = nullptr;     // tasks a worker has executed
  obs::Histogram* task_seconds = nullptr;  // per-task wall time, seconds
};

// Fixed-size worker pool for per-query and per-run fan-out. Tasks are plain
// callables; Submit returns a std::future so callers can join on completion
// and exceptions thrown inside a task propagate to whoever waits on it.
//
// Design notes:
//  - Workers are started once in the constructor and joined in the
//    destructor; the pool is created per MonitoringSystem / per sweep, not
//    per bin, so thread start-up cost is off the hot path.
//  - The queue is FIFO, so same-thread submission order is preserved. No
//    work stealing: shedmon's tasks (one per query, one per grid cell) are
//    coarse enough that a mutex-guarded deque is not a bottleneck.
//  - The pool makes no fairness or affinity promises; determinism of results
//    is the *callers'* job (see core::MonitoringSystem's sequenced cost
//    charging), not the scheduler's.
class ThreadPool {
 public:
  // Spawns `num_threads` workers. At least one worker is always created so a
  // pool can absorb blocking tasks even when callers ask for zero.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Installs (or clears) the metrics hooks. Guarded by the queue mutex so it
  // may be called while workers are parked; call before submitting work —
  // tasks already in flight may be counted under the old hooks.
  void SetMetrics(const PoolMetricsHooks& hooks) SHEDMON_EXCLUDES(mutex_);

  // Enqueues `fn` and returns a future for its result. The future's
  // get()/wait() rethrows any exception the task raised.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  // Runs body(i) for every i in [begin, end) across the pool and blocks until
  // all iterations finished. Iterations are batched into chunks of `grain`
  // consecutive indices (grain 0 picks ceil(n / num_threads), one chunk per
  // worker); the calling thread executes the first chunk itself. The first
  // exception thrown by any iteration is rethrown on the calling thread after
  // all chunks finish.
  //
  // Must be called from OUTSIDE this pool's workers: after its own chunk the
  // caller blocks on futures without helping to drain the queue, so a worker
  // that calls ParallelFor on its own pool can deadlock (every shedmon use
  // drives a pool from the owning coordinator thread; nested fan-out — e.g.
  // an api::RunPipelineGrid cell whose builder enables num_threads — creates
  // its own inner pool instead).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& body);

 private:
  void Enqueue(std::function<void()> fn) SHEDMON_EXCLUDES(mutex_);
  void WorkerLoop() SHEDMON_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<std::function<void()>> queue_ SHEDMON_GUARDED_BY(mutex_);
  bool stop_ SHEDMON_GUARDED_BY(mutex_) = false;
  PoolMetricsHooks hooks_ SHEDMON_GUARDED_BY(mutex_);
};

}  // namespace shedmon::exec
