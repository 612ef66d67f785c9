#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/query/query.h"
#include "src/trace/generator.h"

namespace shedmon::query {

// Runs fresh instances of the named queries over the full, unsampled trace;
// the returned instances hold the ground-truth per-interval results every
// accuracy comparison in the paper is measured against (§2.2.1: "the actual
// value in our experiments is obtained from a complete packet trace").
std::vector<std::unique_ptr<Query>> RunReference(const std::vector<std::string>& names,
                                                 const trace::Trace& trace,
                                                 uint64_t bin_us = 100'000);

// Per-query accuracy summary between a shed run and its reference.
struct AccuracyRow {
  std::string query;
  double mean_error = 0.0;
  double stdev_error = 0.0;
};

AccuracyRow SummarizeAccuracy(const Query& estimate, const Query& reference);

}  // namespace shedmon::query
