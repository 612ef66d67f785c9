#include "src/predict/fcbf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/stats.h"

namespace shedmon::predict {

FcbfResult SelectFeatures(const Matrix& x, const std::vector<double>& y, double threshold) {
  FcbfResult result;
  const size_t p = x.cols();
  const size_t n = x.rows();
  result.relevance.assign(p, 0.0);
  if (p == 0 || n < 2) {
    return result;
  }
  if (y.size() != n) {
    throw std::invalid_argument("SelectFeatures: response length must equal the row count");
  }

  // Centre the window once. Every correlation below is then a column sum over
  // the centred matrix, accumulated in row order with the same operations
  // util::PearsonCorrelation performs, so each value is bit-identical to the
  // pairwise call it replaces.
  std::vector<double> mean(p, 0.0);
  double my = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double* xr = x.Row(r);
    for (size_t c = 0; c < p; ++c) {
      mean[c] += xr[c];
    }
    my += y[r];
  }
  for (size_t c = 0; c < p; ++c) {
    mean[c] /= static_cast<double>(n);
  }
  my /= static_cast<double>(n);
  Matrix d(n, p);
  std::vector<double> sxx(p, 0.0);
  std::vector<double> sxy(p, 0.0);
  double syy = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double* xr = x.Row(r);
    double* dr = d.Row(r);
    const double dy = y[r] - my;
    for (size_t c = 0; c < p; ++c) {
      const double v = xr[c] - mean[c];
      dr[c] = v;
      sxy[c] += v * dy;
      sxx[c] += v * v;
    }
    syy += dy * dy;
  }
  for (size_t c = 0; c < p; ++c) {
    result.relevance[c] = std::abs(util::CorrelationFromSums(sxy[c], sxx[c], syy));
  }

  // Phase 1: relevance filtering, ranked by decreasing |corr(X_i, y)|.
  std::vector<int> ranked;
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

  // Phase 2: redundancy elimination. Row i's correlations with every
  // lower-ranked survivor are independent per-column sums, one pass over the
  // window.
  const size_t k = ranked.size();
  Matrix dk(n, k);  // the centred window's ranked columns, in rank order
  for (size_t r = 0; r < n; ++r) {
    const double* dr = d.Row(r);
    double* dkr = dk.Row(r);
    for (size_t j = 0; j < k; ++j) {
      dkr[j] = dr[static_cast<size_t>(ranked[j])];
    }
  }
  std::vector<bool> removed(k, false);
  std::vector<double> between(k);
  for (size_t i = 0; i < k; ++i) {
    if (removed[i]) {
      continue;
    }
    const auto fi = static_cast<size_t>(ranked[i]);
    std::fill(between.begin(), between.end(), 0.0);
    for (size_t r = 0; r < n; ++r) {
      const double* dkr = dk.Row(r);
      const double di = dkr[i];
      for (size_t j = i + 1; j < k; ++j) {
        between[j] += di * dkr[j];
      }
    }
    for (size_t j = i + 1; j < k; ++j) {
      if (removed[j]) {
        continue;
      }
      const auto fj = static_cast<size_t>(ranked[j]);
      const double corr = util::CorrelationFromSums(between[j], sxx[fi], sxx[fj]);
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
