#pragma once

// Harness for the Ch. 3 prediction experiments: runs one query over a trace
// batch-by-batch, predicting each batch's cost before executing it, exactly
// like the validation of §3.3 (no load shedding involved).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cost.h"
#include "src/features/extractor.h"
#include "src/predict/predictors.h"
#include "src/query/queries.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/util/stats.h"

namespace shedmon::bench {

struct PredictionRun {
  std::vector<double> predicted;  // per batch
  std::vector<double> actual;
  std::vector<double> error;  // |1 - predicted/actual|, after warm-up
  double extraction_cycles = 0.0;
  double fit_cycles = 0.0;  // FCBF + MLR (or SLR/EWMA upkeep)
  double query_cycles = 0.0;
  std::map<int, size_t> selection_counts;

  double MeanError() const {
    util::RunningStats s;
    for (const double e : error) {
      s.Add(e);
    }
    return s.mean();
  }
  double StdevError() const {
    util::RunningStats s;
    for (const double e : error) {
      s.Add(e);
    }
    return s.stdev();
  }
  double MaxError() const {
    double m = 0.0;
    for (const double e : error) {
      m = std::max(m, e);
    }
    return m;
  }
};

inline PredictionRun RunPredictionExperiment(const trace::Trace& trace,
                                             const std::string& query_name,
                                             const predict::PredictorConfig& config,
                                             core::CostOracle& oracle,
                                             size_t warmup_batches = 10) {
  PredictionRun run;
  auto query = query::MakeQuery(query_name);
  // The oracle outlives this experiment and keys its per-query work baseline
  // by address; a fresh query may reuse a finished one's address, so
  // baseline it explicitly or its first charge depends on heap layout.
  oracle.OnQueryAdded(query.get());
  auto predictor = predict::MakePredictor(config);
  features::FeatureExtractor extractor;

  trace::Batcher batcher(trace, 100'000);
  trace::Batch batch;
  size_t bin = 0;
  while (batcher.Next(batch)) {
    features::FeatureVector f{};
    core::WorkHint extract_hint{nullptr, &batch.packets, 0.0};
    run.extraction_cycles += oracle.Run(core::WorkKind::kFeatureExtraction, extract_hint,
                                        [&] { f = extractor.Extract(batch.packets); });

    const double predicted = predictor->Predict(f);

    query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0};
    core::WorkHint query_hint{query.get(), &batch.packets, 0.0};
    const double actual =
        oracle.Run(core::WorkKind::kQuery, query_hint, [&] { query->ProcessBatch(in); });
    run.query_cycles += actual;

    core::WorkHint fit_hint{query.get(), nullptr, static_cast<double>(config.history)};
    run.fit_cycles +=
        oracle.Run(core::WorkKind::kFcbfMlr, fit_hint, [&] { predictor->Observe(f, actual); });

    run.predicted.push_back(predicted);
    run.actual.push_back(actual);
    if (bin >= warmup_batches && actual > 0.0) {
      run.error.push_back(util::RelativeError(predicted, actual));
    }
    if (query->EndBin()) {
      extractor.StartInterval();
    }
    ++bin;
  }
  if (const auto* mlr = dynamic_cast<const predict::MlrPredictor*>(predictor.get())) {
    run.selection_counts = mlr->selection_counts();
  }
  return run;
}

// Names of the most frequently selected features across a run (Table 3.2).
inline std::string TopSelectedFeatures(const std::map<int, size_t>& counts, size_t n = 2) {
  std::vector<std::pair<size_t, int>> ranked;
  for (const auto& [idx, c] : counts) {
    ranked.emplace_back(c, idx);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::string out;
  for (size_t i = 0; i < ranked.size() && i < n; ++i) {
    if (!out.empty()) {
      out += ", ";
    }
    out += std::string(features::FeatureName(ranked[i].second));
  }
  return out.empty() ? "-" : out;
}

inline const std::vector<std::string>& SevenQueries() {
  static const std::vector<std::string> names = query::StandardSevenQueryNames();
  return names;
}

}  // namespace shedmon::bench
