#include "src/predict/fcbf.h"

#include <algorithm>
#include <cmath>

#include "src/util/stats.h"

namespace shedmon::predict {

FcbfResult SelectFeatures(const SymmetricMatrix& comoments, double threshold) {
  FcbfResult result;
  if (comoments.size() < 2) {
    return result;
  }
  const size_t p = comoments.size() - 1;  // the last index is the response
  result.relevance.assign(p, 0.0);
  for (size_t c = 0; c < p; ++c) {
    result.relevance[c] = std::abs(util::CorrelationFromSums(
        comoments.At(c, p), comoments.At(c, c), comoments.At(p, p)));
  }

  // Phase 1: relevance filtering, ranked by decreasing |corr(X_i, y)|.
  std::vector<int> ranked;
  ranked.reserve(p);
  for (size_t c = 0; c < p; ++c) {
    if (result.relevance[c] >= threshold && result.relevance[c] > 0.0) {
      ranked.push_back(static_cast<int>(c));
    }
  }
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    return result.relevance[static_cast<size_t>(a)] > result.relevance[static_cast<size_t>(b)];
  });

  if (ranked.empty()) {
    // Fall back to the best single predictor so MLR degrades to SLR rather
    // than to an intercept-only model.
    const auto best = std::max_element(result.relevance.begin(), result.relevance.end());
    if (*best > 0.0) {
      result.selected.push_back(static_cast<int>(best - result.relevance.begin()));
    }
    return result;
  }

  // Phase 2: redundancy elimination.
  const size_t k = ranked.size();
  std::vector<bool> removed(k, false);
  for (size_t i = 0; i < k; ++i) {
    if (removed[i]) {
      continue;
    }
    const auto fi = static_cast<size_t>(ranked[i]);
    for (size_t j = i + 1; j < k; ++j) {
      if (removed[j]) {
        continue;
      }
      const auto fj = static_cast<size_t>(ranked[j]);
      const double corr = util::CorrelationFromSums(comoments.At(fi, fj), comoments.At(fi, fi),
                                                    comoments.At(fj, fj));
      if (std::abs(corr) >= result.relevance[fj]) {
        removed[j] = true;
      }
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (!removed[i]) {
      result.selected.push_back(ranked[i]);
    }
  }
  return result;
}

}  // namespace shedmon::predict
