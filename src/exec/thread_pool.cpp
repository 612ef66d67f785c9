#include "src/exec/thread_pool.h"

#include <algorithm>

#include "src/util/cycle_clock.h"

namespace shedmon::exec {

void ThreadPool::SetMetrics(const PoolMetricsHooks& hooks) {
  util::MutexLock lock(mutex_);
  hooks_ = hooks;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    util::MutexLock lock(mutex_);
    queue_.push_back(std::move(fn));
    if (hooks_.queue_depth != nullptr) {
      hooks_.queue_depth->Add(1.0);
    }
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    PoolMetricsHooks hooks;
    {
      util::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) {
        cv_.Wait(lock);
      }
      if (queue_.empty()) {
        return;  // stop_ set and queue drained
      }
      fn = std::move(queue_.front());
      queue_.pop_front();
      hooks = hooks_;
      if (hooks.queue_depth != nullptr) {
        hooks.queue_depth->Add(-1.0);
      }
    }
    if (hooks.task_seconds != nullptr) {
      const uint64_t start_us = util::MonotonicNowUs();
      fn();
      hooks.task_seconds->Observe(static_cast<double>(util::MonotonicNowUs() - start_us) * 1e-6);
    } else {
      fn();
    }
    if (hooks.tasks_total != nullptr) {
      hooks.tasks_total->Increment();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& body) {
  if (begin >= end) {
    return;
  }
  const size_t n = end - begin;
  if (grain == 0) {
    grain = (n + num_threads() - 1) / num_threads();
  }
  // Re-check the grain against the range: it must be at least 1 (a zero
  // grain would loop forever) and at most n (a grain
  // beyond the range collapses to one caller-run chunk, never an empty one).
  grain = std::max<size_t>(1, std::min(grain, n));

  // Chunk [c*grain, min(end, (c+1)*grain)); chunk 0 runs on the caller.
  struct Chunk {
    size_t begin;
    size_t end;
  };
  std::vector<Chunk> chunks;
  for (size_t lo = begin; lo < end; lo += grain) {
    chunks.push_back({lo, std::min(end, lo + grain)});
  }
  auto run_chunk = [&body](const Chunk& c) {
    for (size_t i = c.begin; i < c.end; ++i) {
      body(i);
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(chunks.size() - 1);
  for (size_t c = 1; c < chunks.size(); ++c) {
    futures.push_back(Submit([&run_chunk, chunk = chunks[c]] { run_chunk(chunk); }));
  }
  std::exception_ptr first_error;
  try {
    run_chunk(chunks[0]);
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace shedmon::exec
