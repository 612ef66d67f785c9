#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace shedmon::obs {
class Histogram;
class Tracer;
}  // namespace shedmon::obs

namespace shedmon::rt {
class FaultInjector;
}  // namespace shedmon::rt

namespace shedmon::exec {

class ThreadPool;

// Runs index-addressed units of work (one per registered query, in
// shedmon's main use) across a ThreadPool and waits for all of them.
//
// This is the primitive that keeps parallel pipelines bit-identical to their
// serial equivalents: tasks may run in any order on any worker as long as
// they only touch state owned by their index (plus explicitly thread-safe
// shared services such as the sequenced cost oracle). Everything
// order-sensitive — accumulating BinLog cycle counters, appending rows,
// updating EWMA smoothers — is folded by the caller after Run returns, in
// index order.
//
// With a null pool (or n <= 1) the executor degrades to a plain serial loop
// running task(i) per index, so callers need no separate serial code path.
class QueryExecutor {
 public:
  // Does not take ownership of `pool`; pass nullptr for inline execution.
  explicit QueryExecutor(ThreadPool* pool) : pool_(pool) {}

  // Runs task(i) for i in [0, n) (on the pool when available) and waits for
  // all of them. Exceptions from tasks propagate after all tasks finished.
  void Run(size_t n, const std::function<void(size_t)>& task) const;

  bool parallel() const { return pool_ != nullptr; }
  ThreadPool* pool() const { return pool_; }

  // Optional query-wave timing: when set (and the pool path is taken), each
  // Run records the wall time of its task fan-out wave. Borrowed pointer;
  // null disables. Timing is observational only — it never feeds back into
  // scheduling, so instrumented runs stay bit-identical.
  void SetMetrics(obs::Histogram* wave_seconds) { wave_seconds_ = wave_seconds; }

  // Optional fault injection: when set, every task of every Run wave first
  // passes through injector->OnWorkerTask(bin_index) — the hook for the
  // fault plan's slow-worker stalls. Borrowed pointer; null disables. The
  // coordinator advances the bin index between batches.
  void SetFaultInjector(rt::FaultInjector* injector) { injector_ = injector; }
  void SetBinIndex(size_t bin_index) { bin_index_ = bin_index; }

  // Optional span tracing: when a tracer is set, every task of a Run wave is
  // recorded as one kQuery span (arg = task index). Borrowed pointer; null
  // disables. Like the metrics, spans are write-only — they never influence
  // scheduling — so traced runs stay bit-identical.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  ThreadPool* pool_;
  obs::Histogram* wave_seconds_ = nullptr;
  rt::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  size_t bin_index_ = 0;
};

}  // namespace shedmon::exec
