#include "src/query/accuracy.h"

#include <algorithm>

#include "src/query/queries.h"
#include "src/trace/batch.h"
#include "src/util/stats.h"

namespace shedmon::query {

std::vector<std::unique_ptr<Query>> RunReference(const std::vector<std::string>& names,
                                                 const trace::Trace& trace, uint64_t bin_us) {
  std::vector<std::unique_ptr<Query>> queries;
  queries.reserve(names.size());
  for (const auto& name : names) {
    queries.push_back(MakeQuery(name));
  }

  trace::Batcher batcher(trace, bin_us);
  trace::Batch batch;
  while (batcher.Next(batch)) {
    BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0};
    for (auto& q : queries) {
      q->ProcessBatch(in);
      q->EndBin();
    }
  }
  for (auto& q : queries) {
    q->FlushInterval();
  }
  return queries;
}

AccuracyRow SummarizeAccuracy(const Query& estimate, const Query& reference) {
  AccuracyRow row;
  row.query = estimate.name();
  util::RunningStats stats;
  const size_t n = std::min(estimate.completed_intervals(), reference.completed_intervals());
  for (size_t i = 0; i < n; ++i) {
    stats.Add(estimate.IntervalError(reference, i));
  }
  row.mean_error = stats.mean();
  row.stdev_error = stats.stdev();
  return row;
}

}  // namespace shedmon::query
