#include "src/core/runner.h"

#include <algorithm>

#include "src/features/extractor.h"
#include "src/query/queries.h"
#include "src/util/stats.h"

namespace shedmon::core {

double DefaultMinRate(std::string_view query_name) {
  if (query_name == "application") {
    return 0.03;
  }
  if (query_name == "autofocus") {
    return 0.69;
  }
  if (query_name == "counter") {
    return 0.03;
  }
  if (query_name == "flows") {
    return 0.05;
  }
  if (query_name == "high-watermark") {
    return 0.15;
  }
  if (query_name == "pattern-search") {
    return 0.10;
  }
  if (query_name == "super-sources") {
    return 0.93;
  }
  if (query_name == "top-k") {
    return 0.57;
  }
  if (query_name == "trace") {
    return 0.10;
  }
  if (query_name == "p2p-detector") {
    return 0.10;
  }
  return 0.0;
}

double MeasureMeanDemand(const std::vector<std::string>& names, const trace::Trace& trace,
                         OracleKind oracle_kind, uint64_t bin_us) {
  auto oracle = MakeOracle(oracle_kind);
  std::vector<std::unique_ptr<query::Query>> queries;
  for (const auto& name : names) {
    queries.push_back(query::MakeQuery(name));
  }

  // The demand of a no-shedding bin also includes the prediction subsystem:
  // one shared extraction plus a per-query re-extraction and model fit
  // (Alg. 1). Measure one real extraction and scale it.
  features::FeatureExtractor extractor;

  trace::Batcher batcher(trace, bin_us);
  trace::Batch batch;
  util::RunningStats per_bin;
  while (batcher.Next(batch)) {
    double bin_cycles = 0.0;
    WorkHint extract_hint{nullptr, &batch.packets, 0.0};
    const double extract = oracle->Run(WorkKind::kFeatureExtraction, extract_hint,
                                       [&] { (void)extractor.Extract(batch.packets); });
    bin_cycles += extract * static_cast<double>(1 + queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0};
      WorkHint hint{queries[q].get(), &batch.packets, 0.0};
      bin_cycles +=
          oracle->Run(WorkKind::kQuery, hint, [&] { queries[q]->ProcessBatch(in); });
      WorkHint fit_hint{queries[q].get(), nullptr, 60.0};
      bin_cycles += oracle->Run(WorkKind::kFcbfMlr, fit_hint, [] {});
      queries[q]->EndBin();
    }
    per_bin.Add(bin_cycles);
  }
  return per_bin.mean();
}

}  // namespace shedmon::core
