#include "src/query/query.h"

#include <algorithm>
#include <utility>

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

bool Query::EndBin() {
  if (++bins_in_interval_ < interval_bins_) {
    return false;
  }
  EndInterval();
  return true;
}

void Query::FlushInterval() {
  if (bins_in_interval_ > 0) {
    EndInterval();
  }
}

void Query::EndInterval() {
  bins_in_interval_ = 0;
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

}  // namespace shedmon::query
