#pragma once

#include <vector>

#include "src/predict/linalg.h"

namespace shedmon::predict {

struct FcbfResult {
  // Indices of selected predictors, ordered by decreasing relevance.
  std::vector<int> selected;
  // |corr(X_i, y)| for every predictor (0 for constant columns).
  std::vector<double> relevance;
};

// Fast Correlation-Based Filter, the thesis variant (§3.2.3): predictor
// goodness is the absolute linear correlation coefficient instead of the
// original symmetrical uncertainty. Phase 1 drops columns whose relevance is
// below `threshold`; phase 2 walks the relevance-ranked survivors and removes
// any predictor whose correlation with a better-ranked one exceeds its own
// correlation with the response (redundancy). If nothing clears the
// threshold, the single most relevant predictor is kept so the regression
// never runs empty.
//
// The input is the window's centred co-moment matrix, not the window itself:
// `comoments` is the (p+1)×(p+1) matrix of sums Σ(v_i − v̄_i)(v_j − v̄_j)
// over the window rows, whose first p entries are the candidate predictors
// and whose last is the response. Every correlation is then one entry
// scaled by two diagonal ones, so selection costs O(p²) however long the
// window is. A column that is constant over the window must have an
// all-zero row and column: its relevance is then exactly 0. Every
// correlation is util::CorrelationFromSums of the entries.
FcbfResult SelectFeatures(const SymmetricMatrix& comoments, double threshold);

}  // namespace shedmon::predict
