#include "src/exec/query_executor.h"

#include <algorithm>

#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rt/fault.h"
#include "src/util/cycle_clock.h"

namespace shedmon::exec {

size_t QueryExecutor::PlanShards(size_t units, size_t max_shards, size_t min_units) const {
  if (pool_ == nullptr || max_shards <= 1) {
    return 1;
  }
  size_t shards = std::min(max_shards, pool_->num_threads() + 1);
  if (min_units > 0) {
    shards = std::min(shards, units / min_units);
  }
  return std::max<size_t>(1, shards);
}

std::vector<ShardRange> QueryExecutor::SplitUnits(size_t units, size_t shards) {
  // Re-check the grain against the actual unit count: a 1-unit batch split
  // "eight ways" must yield one 1-unit range, not seven empty ones.
  shards = std::max<size_t>(1, std::min(shards, std::max<size_t>(units, 1)));
  std::vector<ShardRange> ranges;
  ranges.reserve(shards);
  const size_t base = units / shards;
  const size_t rem = units % shards;
  size_t lo = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t hi = lo + base + (s < rem ? 1 : 0);
    ranges.push_back({lo, hi});
    lo = hi;
  }
  return ranges;
}

void QueryExecutor::Run(size_t n, const std::function<void(size_t)>& raw_task) const {
  std::function<void(size_t)> task = raw_task;
  if (injector_ != nullptr) {
    // The stall hits whichever thread runs the task — worker or the
    // participating caller — exactly like a genuinely slow query would.
    task = [this, raw_task](size_t i) {
      injector_->OnWorkerTask(bin_index_);
      raw_task(i);
    };
  }
  if (tracer_ != nullptr) {
    // Outermost wrapper so the span covers any injected stall too — the
    // trace should show the wall time a task actually took.
    const std::function<void(size_t)> inner = task;
    obs::Tracer* tracer = tracer_;
    const obs::Stage stage = trace_stage_;
    const uint32_t bin = static_cast<uint32_t>(bin_index_);
    task = [tracer, stage, bin, inner](size_t i) {
      obs::Span span(tracer, stage, bin, static_cast<int64_t>(i));
      inner(i);
    };
  }
  if (pool_ != nullptr && n > 1) {
    // Grain 1: per-query costs are heterogeneous (Fig. 2.2 spans ~20x), so
    // fine-grained dispatch load-balances better than equal chunks.
    if (wave_seconds_ != nullptr) {
      const uint64_t start_us = util::MonotonicNowUs();
      pool_->ParallelFor(0, n, 1, task);
      wave_seconds_->Observe(static_cast<double>(util::MonotonicNowUs() - start_us) * 1e-6);
    } else {
      pool_->ParallelFor(0, n, 1, task);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      task(i);
    }
  }
}

}  // namespace shedmon::exec
