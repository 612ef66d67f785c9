#include "src/query/query.h"

#include <algorithm>
#include <utility>

#include "src/util/stats.h"

namespace shedmon::query {

Query::Query(std::string name, size_t interval_bins)
    : name_(std::move(name)), interval_bins_(interval_bins == 0 ? 1 : interval_bins) {}

void Query::ProcessBatch(const BatchInput& in) {
  cur_packets_ += static_cast<double>(in.packets.size());
  OnBatch(in);
}

void Query::ProcessCustom(const BatchInput& in, double fraction) {
  cur_packets_ += static_cast<double>(in.packets.size());
  OnCustomBatch(in, fraction);
}

void Query::OnCustomBatch(const BatchInput& in, double /*fraction*/) { OnBatch(in); }

void Query::EndInterval() {
  interval_packets_.push_back(cur_packets_);
  cur_packets_ = 0.0;
  OnEndInterval(intervals_done_);
  ++intervals_done_;
}

double Query::IntervalPacketsProcessed(size_t interval) const {
  if (interval >= interval_packets_.size()) {
    return 0.0;
  }
  return interval_packets_[interval];
}

double Query::IntervalError(const Query& reference, size_t interval) const {
  // Generic error for queries without a recoverable unsampled output
  // (trace, pattern-search): one minus the fraction of packets processed.
  const double total = reference.IntervalPacketsProcessed(interval);
  if (total <= 0.0) {
    return 0.0;
  }
  const double mine = IntervalPacketsProcessed(interval);
  return std::clamp(1.0 - mine / total, 0.0, 1.0);
}

double Query::MeanError(const Query& reference) const {
  const size_t n = std::min(completed_intervals(), reference.completed_intervals());
  if (n == 0) {
    return 0.0;
  }
  util::RunningStats stats;
  for (size_t i = 0; i < n; ++i) {
    stats.Add(IntervalError(reference, i));
  }
  return stats.mean();
}

}  // namespace shedmon::query
