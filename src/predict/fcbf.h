#pragma once

#include <vector>

#include "src/predict/linalg.h"

namespace shedmon::predict {

struct FcbfResult {
  // Indices of selected columns of X, ordered by decreasing relevance.
  std::vector<int> selected;
  // |corr(X_i, y)| for every column (0 for constant columns).
  std::vector<double> relevance;
};

// Fast Correlation-Based Filter, the thesis variant (§3.2.3): predictor
// goodness is the absolute linear correlation coefficient instead of the
// original symmetrical uncertainty. Phase 1 drops columns whose relevance is
// below `threshold`; phase 2 walks the relevance-ranked survivors and removes
// any predictor whose correlation with a better-ranked one exceeds its own
// correlation with the response (redundancy). If nothing clears the
// threshold, the single most relevant predictor is kept so the regression
// never runs empty. `y` holds one response per row of `x`
// (std::invalid_argument otherwise). Every correlation is bit-identical to
// util::PearsonCorrelation over the materialized columns.
FcbfResult SelectFeatures(const Matrix& x, const std::vector<double>& y, double threshold);

}  // namespace shedmon::predict
