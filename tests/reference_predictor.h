#pragma once

// Test oracle for predict::MlrPredictor: the from-scratch refit. Every
// observation copies the whole window into a matrix, runs FCBF as pairwise
// Pearson correlations over its columns and solves the standardized
// least-squares problem by a one-sided Jacobi SVD of the n×(p+1) design. The
// production predictor keeps running window moments instead; the two must
// agree on the selected features and, within rounding, on every prediction.

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/features/features.h"
#include "src/predict/fcbf.h"  // FcbfResult
#include "src/predict/linalg.h"
#include "src/predict/predictors.h"
#include "src/util/stats.h"

namespace shedmon::oracle {

using predict::FcbfResult;
using predict::Matrix;

struct LeastSquaresResult {
  std::vector<double> coef;  // size = a.cols()
  int rank = 0;
  bool ok = false;
};

// Solves min ||A x - y||_2 through the singular value decomposition, the
// paper's choice (§3.2.2) because it returns the best approximation even for
// rank-deficient or under-determined systems. One-sided Jacobi rotations;
// singular values below rcond * max_sv are truncated, yielding the
// minimum-norm solution.
inline LeastSquaresResult SolveLeastSquaresSvd(const Matrix& a, const std::vector<double>& y,
                                               double rcond = 1e-10) {
  LeastSquaresResult result;
  const size_t p = a.cols();
  if (p == 0 || a.rows() == 0) {
    return result;
  }
  if (y.size() != a.rows()) {
    throw std::invalid_argument("SolveLeastSquaresSvd: y size mismatch");
  }

  // Work on W = A padded with zero rows up to max(rows, cols); padding does
  // not change the normal equations, and one-sided Jacobi wants n >= p.
  const size_t n = a.rows() < p ? p : a.rows();
  std::vector<double> w(n * p, 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < p; ++c) {
      w[r * p + c] = a.At(r, c);
    }
  }
  std::vector<double> yy(n, 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    yy[r] = y[r];
  }

  // V accumulates the right singular vectors (p x p, row-major).
  std::vector<double> v(p * p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    v[i * p + i] = 1.0;
  }

  auto col_dot = [&](size_t i, size_t j) {
    double s = 0.0;
    for (size_t r = 0; r < n; ++r) {
      s += w[r * p + i] * w[r * p + j];
    }
    return s;
  };

  constexpr int kMaxSweeps = 40;
  constexpr double kOrthTol = 1e-13;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (size_t i = 0; i + 1 < p; ++i) {
      for (size_t j = i + 1; j < p; ++j) {
        const double alpha = col_dot(i, i);
        const double beta = col_dot(j, j);
        const double gamma = col_dot(i, j);
        if (std::abs(gamma) <= kOrthTol * std::sqrt(alpha * beta) || gamma == 0.0) {
          continue;
        }
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (size_t r = 0; r < n; ++r) {
          const double wi = w[r * p + i];
          const double wj = w[r * p + j];
          w[r * p + i] = c * wi - s * wj;
          w[r * p + j] = s * wi + c * wj;
        }
        for (size_t r = 0; r < p; ++r) {
          const double vi = v[r * p + i];
          const double vj = v[r * p + j];
          v[r * p + i] = c * vi - s * vj;
          v[r * p + j] = s * vi + c * vj;
        }
      }
    }
    if (!rotated) {
      break;
    }
  }

  std::vector<double> sv(p, 0.0);
  double sv_max = 0.0;
  for (size_t i = 0; i < p; ++i) {
    sv[i] = std::sqrt(col_dot(i, i));
    sv_max = std::max(sv_max, sv[i]);
  }
  const double cutoff = sv_max * rcond;

  // x = V * diag(1/sv) * U^T * y, truncating negligible singular values.
  result.coef.assign(p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    if (sv[i] <= cutoff || sv[i] == 0.0) {
      continue;
    }
    ++result.rank;
    double uy = 0.0;
    for (size_t r = 0; r < n; ++r) {
      uy += w[r * p + i] * yy[r];
    }
    const double scale = uy / (sv[i] * sv[i]);
    for (size_t c = 0; c < p; ++c) {
      result.coef[c] += v[c * p + i] * scale;
    }
  }
  result.ok = result.rank > 0;
  return result;
}

// The centred co-moment matrix predict::SelectFeatures reads, computed
// exactly from the window: columns of `x` first, then `y`. Means and sums run
// in row order with util::PearsonCorrelation's operations, so every
// correlation read off it is bit-identical to the pairwise call.
inline predict::SymmetricMatrix CentredComoments(const Matrix& x, const std::vector<double>& y) {
  const size_t p = x.cols();
  const size_t n = x.rows();
  if (y.size() != n) {
    throw std::invalid_argument("CentredComoments: response length must equal the row count");
  }
  predict::SymmetricMatrix out(p + 1);
  if (n < 2) {
    return out;
  }
  std::vector<double> mean(p + 1, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < p; ++c) {
      mean[c] += x.At(r, c);
    }
    mean[p] += y[r];
  }
  for (double& m : mean) {
    m /= static_cast<double>(n);
  }
  std::vector<double> d(p + 1);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < p; ++c) {
      d[c] = x.At(r, c) - mean[c];
    }
    d[p] = y[r] - mean[p];
    for (size_t i = 0; i <= p; ++i) {
      for (size_t j = i; j <= p; ++j) {
        out.At(i, j) += d[i] * d[j];
      }
    }
  }
  return out;
}

// FCBF as pairwise util::PearsonCorrelation calls over the materialized
// columns: the definition predict::SelectFeatures must match bit for bit when
// it is given CentredComoments(x, y).
inline FcbfResult SelectFeatures(const Matrix& x, const std::vector<double>& y,
                                 double threshold) {
  FcbfResult result;
  const size_t p = x.cols();
  result.relevance.assign(p, 0.0);
  if (p == 0 || x.rows() < 2) {
    return result;
  }
  std::vector<std::vector<double>> cols(p, std::vector<double>(x.rows()));
  for (size_t c = 0; c < p; ++c) {
    for (size_t r = 0; r < x.rows(); ++r) {
      cols[c][r] = x.At(r, c);
    }
    result.relevance[c] = std::abs(util::PearsonCorrelation(cols[c], y));
  }
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
    const auto best = std::max_element(result.relevance.begin(), result.relevance.end());
    if (*best > 0.0) {
      result.selected.push_back(static_cast<int>(best - result.relevance.begin()));
    }
    return result;
  }
  std::vector<bool> removed(ranked.size(), false);
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (removed[i]) {
      continue;
    }
    const auto fi = static_cast<size_t>(ranked[i]);
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      const auto fj = static_cast<size_t>(ranked[j]);
      if (!removed[j] &&
          std::abs(util::PearsonCorrelation(cols[fi], cols[fj])) >= result.relevance[fj]) {
        removed[j] = true;
      }
    }
  }
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (!removed[i]) {
      result.selected.push_back(ranked[i]);
    }
  }
  return result;
}

// predict::MlrPredictor's observe/refit/predict contract, refit from scratch
// over the window on every observation.
class ReferenceMlrPredictor {
 public:
  using Config = predict::MlrPredictor::Config;

  ReferenceMlrPredictor() = default;
  explicit ReferenceMlrPredictor(const Config& config) : config_(config) {}

  const std::vector<int>& last_selected() const { return last_selected_; }

  double Predict(const features::FeatureVector& f) const {
    if (!model_valid_) {
      if (window_.empty()) {
        return 0.0;
      }
      double sum = 0.0;
      for (const auto& [feat, cycles] : window_) {
        sum += cycles;
      }
      return sum / static_cast<double>(window_.size());
    }
    double pred = coef_[0];
    for (size_t c = 0; c < last_selected_.size(); ++c) {
      pred += coef_[c + 1] *
              (f[static_cast<size_t>(last_selected_[c])] - col_mean_[c]) / col_scale_[c];
    }
    return std::max(0.0, pred);
  }

  void Observe(const features::FeatureVector& f, double cycles) {
    if (config_.scrub_factor > 0.0 && model_valid_) {
      const double expected = Predict(f);
      const bool out_of_range =
          expected > 0.0 && (cycles > expected * config_.scrub_factor ||
                             cycles < expected / config_.scrub_factor);
      if (out_of_range && consecutive_outliers_ < 2) {
        ++consecutive_outliers_;
        cycles = expected;
      } else {
        consecutive_outliers_ = 0;
      }
    }
    window_.emplace_back(f, cycles);
    while (window_.size() > config_.history) {
      window_.pop_front();
    }
    Refit();
  }

 private:
  void Refit() {
    model_valid_ = false;
    const size_t n = window_.size();
    if (n < config_.min_history) {
      return;
    }
    Matrix x(n, features::kNumFeatures);
    std::vector<double> y(n);
    size_t r = 0;
    for (const auto& [f, cycles] : window_) {
      std::copy(f.begin(), f.end(), x.Row(r));
      y[r] = cycles;
      ++r;
    }
    last_selected_ = SelectFeatures(x, y, config_.fcbf_threshold).selected;

    const size_t p = last_selected_.size();
    col_mean_.assign(p, 0.0);
    col_scale_.assign(p, 1.0);
    for (size_t c = 0; c < p; ++c) {
      const auto col = static_cast<size_t>(last_selected_[c]);
      double mean = 0.0;
      for (size_t row = 0; row < n; ++row) {
        mean += x.At(row, col);
      }
      mean /= static_cast<double>(n);
      double var = 0.0;
      for (size_t row = 0; row < n; ++row) {
        const double d = x.At(row, col) - mean;
        var += d * d;
      }
      col_mean_[c] = mean;
      col_scale_[c] = std::sqrt(var / static_cast<double>(n));
      if (col_scale_[c] <= 1e-12) {
        col_scale_[c] = 1.0;
      }
    }
    Matrix design(n, p + 1);
    for (size_t row = 0; row < n; ++row) {
      design.At(row, 0) = 1.0;
      for (size_t c = 0; c < p; ++c) {
        design.At(row, c + 1) =
            (x.At(row, static_cast<size_t>(last_selected_[c])) - col_mean_[c]) / col_scale_[c];
      }
    }
    const LeastSquaresResult ls = SolveLeastSquaresSvd(design, y, config_.svd_rcond);
    if (!ls.ok) {
      return;
    }
    coef_ = ls.coef;
    model_valid_ = true;
  }

  Config config_;
  std::deque<std::pair<features::FeatureVector, double>> window_;
  std::vector<int> last_selected_;
  std::vector<double> coef_;
  std::vector<double> col_mean_;
  std::vector<double> col_scale_;
  int consecutive_outliers_ = 0;
  bool model_valid_ = false;
};

}  // namespace shedmon::oracle
