#include "src/predict/predictors.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <optional>

namespace shedmon::predict {

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {}

double EwmaPredictor::Predict(const features::FeatureVector& /*f*/) { return value_; }

void EwmaPredictor::Observe(const features::FeatureVector& /*f*/, double cycles) {
  ++count_;
  if (!seeded_) {
    value_ = cycles;
    seeded_ = true;
  } else {
    value_ = alpha_ * cycles + (1.0 - alpha_) * value_;
  }
}

SlrPredictor::SlrPredictor(int feature_index, size_t history)
    : feature_(feature_index), history_(history) {}

double SlrPredictor::Predict(const features::FeatureVector& f) {
  const size_t n = window_.size();
  if (n == 0) {
    return 0.0;
  }
  if (n == 1) {
    return window_.back().second;
  }
  double sx = 0.0, sy = 0.0;
  for (const auto& [x, y] : window_) {
    sx += x;
    sy += y;
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  for (const auto& [x, y] : window_) {
    sxx += (x - mx) * (x - mx);
    sxy += (x - mx) * (y - my);
  }
  if (sxx <= 1e-12) {
    return my;
  }
  const double slope = sxy / sxx;
  const double intercept = my - slope * mx;
  return std::max(0.0, intercept + slope * f[static_cast<size_t>(feature_)]);
}

void SlrPredictor::Observe(const features::FeatureVector& f, double cycles) {
  window_.emplace_back(f[static_cast<size_t>(feature_)], cycles);
  while (window_.size() > history_) {
    window_.pop_front();
  }
}

MlrPredictor::MlrPredictor() : MlrPredictor(Config()) {}

MlrPredictor::MlrPredictor(const Config& config) : config_(config) {}

std::map<int, size_t> MlrPredictor::selection_counts() const {
  std::map<int, size_t> counts;
  for (size_t f = 0; f < selection_counts_.size(); ++f) {
    if (selection_counts_[f] > 0) {
      counts[static_cast<int>(f)] = selection_counts_[f];
    }
  }
  return counts;
}

void MlrPredictor::Slide(const Row& added, const Row* removed) {
  // Sliding-window Welford update. With m the mean before and m' after,
  // C' = C + (x − m)(x − m')ᵀ − (z − m)(z − m')ᵀ for x added and z removed
  // (z absent while the window fills). The right-hand side is symmetric, so
  // only the upper triangle is updated.
  const double inv_n = 1.0 / static_cast<double>(window_.size());
  Row a;
  Row a2;
  Row b{};
  Row b2{};
  for (size_t i = 0; i < kDims; ++i) {
    a[i] = added[i] - mean_[i];
  }
  if (removed != nullptr) {
    for (size_t i = 0; i < kDims; ++i) {
      b[i] = (*removed)[i] - mean_[i];
      mean_[i] += (a[i] - b[i]) * inv_n;
      a2[i] = added[i] - mean_[i];
      b2[i] = (*removed)[i] - mean_[i];
      cancelled_[i] += std::abs(b[i] * b2[i]);
    }
  } else {
    for (size_t i = 0; i < kDims; ++i) {
      mean_[i] += a[i] * inv_n;
      a2[i] = added[i] - mean_[i];
    }
  }
  double* c = comoments_.packed().data();
  for (size_t i = 0; i < kDims; ++i) {
    const double ai = a[i];
    const double bi = b[i];
    for (size_t j = i; j < kDims; ++j) {
      *c++ += ai * a2[j] - bi * b2[j];
    }
  }
}

bool MlrPredictor::Cancelled() const {
  // A residue of u·cancelled_ (u the unit roundoff) against a co-moment at
  // least cancelled_ / kMaxCancelled is at most ~2e-13 of it. Columns about
  // to be pinned constant are exempt: pinning clears their residue.
  constexpr double kMaxCancelled = 1e3;
  const uint64_t n = window_.size();
  for (size_t d = 0; d < kDims; ++d) {
    if (same_run_[d] < n && cancelled_[d] > kMaxCancelled * comoments_.At(d, d)) {
      return true;
    }
  }
  return false;
}

void MlrPredictor::Rebuild() {
  const double n = static_cast<double>(window_.size());
  mean_.fill(0.0);
  for (const Row& row : window_) {
    for (size_t i = 0; i < kDims; ++i) {
      mean_[i] += row[i];
    }
  }
  for (double& m : mean_) {
    m /= n;
  }
  std::fill(comoments_.packed().begin(), comoments_.packed().end(), 0.0);
  for (const Row& row : window_) {
    Row d;
    for (size_t i = 0; i < kDims; ++i) {
      d[i] = row[i] - mean_[i];
    }
    double* c = comoments_.packed().data();
    for (size_t i = 0; i < kDims; ++i) {
      const double di = d[i];
      for (size_t j = i; j < kDims; ++j) {
        *c++ += di * d[j];
      }
    }
  }
  cancelled_.fill(0.0);
  since_rebuild_ = 0;
}

void MlrPredictor::PinConstantColumns(bool after_rebuild) {
  // A column whose value has not changed over the window has exactly zero
  // centred moments, which the updates only approach. Pinning it once when
  // its run first covers the window is enough: while it stays constant, its
  // every update term is an exact zero.
  const uint64_t n = window_.size();
  const Row& newest = window_.back();
  for (size_t d = 0; d < kDims; ++d) {
    if (same_run_[d] == n || (after_rebuild && same_run_[d] > n)) {
      mean_[d] = newest[d];
      cancelled_[d] = 0.0;
      for (size_t i = 0; i < kDims; ++i) {
        comoments_.At(i, d) = 0.0;
      }
    }
  }
}

void MlrPredictor::Refit() {
  model_valid_ = false;
  const size_t n = window_.size();
  if (n < config_.min_history) {
    return;
  }
  const FcbfResult fcbf = SelectFeatures(comoments_, config_.fcbf_threshold);
  last_selected_ = fcbf.selected;
  for (int idx : last_selected_) {
    ++selection_counts_[static_cast<size_t>(idx)];
  }

  // OLS with intercept over the selected predictors (eq. 3.1 / 3.2). The
  // columns are standardized first so the truncation acts on comparable
  // scales; near-collinear feature combinations then fall below rcond and
  // are dropped from the fit instead of producing huge canceling
  // coefficients that explode out of sample. The centred columns are
  // orthogonal to the intercept, so the intercept is the mean response and
  // the slopes solve the p×p normal equations R·β = r, where R is the
  // columns' correlation matrix (ZᵀZ / n) and r their covariance with the
  // response over their scale (Zᵀy / n).
  const double inv_n = 1.0 / static_cast<double>(n);
  const size_t p = last_selected_.size();
  constexpr size_t kResponse = kDims - 1;
  col_mean_.assign(p, 0.0);
  col_scale_.assign(p, 1.0);
  for (size_t c = 0; c < p; ++c) {
    const auto f = static_cast<size_t>(last_selected_[c]);
    col_mean_[c] = mean_[f];
    col_scale_[c] = std::sqrt(std::max(comoments_.At(f, f), 0.0) * inv_n);
    if (col_scale_[c] <= 1e-12) {
      col_scale_[c] = 1.0;  // constant column: contributes via the intercept
    }
  }
  SymmetricMatrix corr(p);
  std::vector<double> rhs(p);
  for (size_t a = 0; a < p; ++a) {
    const auto fa = static_cast<size_t>(last_selected_[a]);
    for (size_t b = a; b < p; ++b) {
      const auto fb = static_cast<size_t>(last_selected_[b]);
      corr.At(a, b) = comoments_.At(fa, fb) * inv_n / (col_scale_[a] * col_scale_[b]);
    }
    rhs[a] = comoments_.At(fa, kResponse) * inv_n / col_scale_[a];
  }
  // Minimum-norm solution: eigenvalues of ZᵀZ at or below rcond² times the
  // largest eigenvalue of the full design's normal matrix are truncated. In
  // units of n the intercept column contributes eigenvalue 1, so the
  // truncation matches an SVD of the design [1 | Z] cut at rcond·σmax.
  const EigenDecomposition eig = SymmetricEigen(corr);
  double lambda_max = 1.0;
  for (const double lambda : eig.values) {
    lambda_max = std::max(lambda_max, lambda);
  }
  const double cutoff = config_.svd_rcond * config_.svd_rcond * lambda_max;
  coef_.assign(p + 1, 0.0);
  coef_[0] = mean_[kResponse];
  for (size_t k = 0; k < p; ++k) {
    const double lambda = eig.values[k];
    if (lambda <= cutoff) {
      continue;
    }
    double proj = 0.0;
    for (size_t c = 0; c < p; ++c) {
      proj += eig.vectors.At(c, k) * rhs[c];
    }
    const double scale = proj / lambda;
    for (size_t c = 0; c < p; ++c) {
      coef_[c + 1] += eig.vectors.At(c, k) * scale;
    }
  }
  model_valid_ = true;
}

double MlrPredictor::Predict(const features::FeatureVector& f) {
  if (!model_valid_) {
    // Cold start: mean of whatever history exists.
    if (window_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (const Row& row : window_) {
      sum += row[kDims - 1];
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

void MlrPredictor::Observe(const features::FeatureVector& f, double cycles) {
  if (config_.history == 0) {
    return;  // a zero-length window keeps nothing
  }
  // Scrub measurements corrupted by events unrelated to the traffic
  // (§3.2.4: the thesis replaces context-switch-polluted readings with the
  // prediction so one bad sample cannot poison the regression window).
  // Corruption is sporadic while genuine cost-regime changes persist, so a
  // run of consecutive out-of-range observations is accepted as real.
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
  Row row;
  std::copy(f.begin(), f.end(), row.begin());
  row[kDims - 1] = cycles;
  for (size_t i = 0; i < kDims; ++i) {
    same_run_[i] = !window_.empty() && window_.back()[i] == row[i] ? same_run_[i] + 1 : 1;
  }
  bool rebuild = window_.empty() || ++since_rebuild_ >= config_.history;
  window_.push_back(row);
  std::optional<Row> evicted;
  if (window_.size() > config_.history) {
    evicted = window_.front();
    window_.pop_front();
  }
  if (!rebuild) {
    Slide(row, evicted ? &*evicted : nullptr);
    rebuild = evicted && Cancelled();
  }
  if (rebuild) {
    Rebuild();
  }
  PinConstantColumns(rebuild);
  Refit();
}

namespace {

// Every predictor opens its state section with a name tag so a stream saved
// by one kind can never be silently misread by another.
void CheckTag(obs::SnapshotReader& r, std::string_view expected) {
  const std::string tag = r.Str();
  if (tag != expected) {
    throw obs::SnapshotError("predictor state tagged '" + tag + "', expected '" +
                             std::string(expected) + "'");
  }
}

}  // namespace

void EwmaPredictor::SaveState(obs::SnapshotWriter& w) const {
  w.Str(name());
  w.F64(value_);
  w.Bool(seeded_);
  w.U64(count_);
}

void EwmaPredictor::LoadState(obs::SnapshotReader& r) {
  CheckTag(r, name());
  value_ = r.F64();
  seeded_ = r.Bool();
  count_ = static_cast<size_t>(r.U64());
}

void SlrPredictor::SaveState(obs::SnapshotWriter& w) const {
  w.Str(name());
  w.U64(window_.size());
  for (const auto& [x, y] : window_) {
    w.F64(x);
    w.F64(y);
  }
}

void SlrPredictor::LoadState(obs::SnapshotReader& r) {
  CheckTag(r, name());
  window_.clear();
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    const double x = r.F64();
    const double y = r.F64();
    window_.emplace_back(x, y);
  }
}

void MlrPredictor::SaveState(obs::SnapshotWriter& w) const {
  w.Str(name());
  w.U64(window_.size());
  for (const Row& row : window_) {
    for (const double v : row) {
      w.F64(v);
    }
  }
  // The running moments are not a pure function of the window (their
  // rounding depends on the order of past updates), so they are saved
  // verbatim together with the recompute phase.
  for (const double x : mean_) {
    w.F64(x);
  }
  for (const double x : comoments_.packed()) {
    w.F64(x);
  }
  for (const uint64_t run : same_run_) {
    w.U64(run);
  }
  for (const double x : cancelled_) {
    w.F64(x);
  }
  w.U64(since_rebuild_);
  w.I64(consecutive_outliers_);
  const std::map<int, size_t> counts = selection_counts();
  w.U64(counts.size());
  for (const auto& [feature, count] : counts) {
    w.I64(feature);
    w.U64(count);
  }
}

void MlrPredictor::LoadState(obs::SnapshotReader& r) {
  CheckTag(r, name());
  window_.clear();
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    Row row;
    for (double& v : row) {
      v = r.F64();
    }
    window_.push_back(row);
  }
  for (double& x : mean_) {
    x = r.F64();
  }
  for (double& x : comoments_.packed()) {
    x = r.F64();
  }
  for (uint64_t& run : same_run_) {
    run = r.U64();
  }
  for (double& x : cancelled_) {
    x = r.F64();
  }
  since_rebuild_ = static_cast<size_t>(r.U64());
  const int64_t outliers = r.I64();
  // The fit is a pure function of the moments; recompute it instead of
  // serializing coefficients so the model can never disagree with its own
  // history. Refit() increments selection_counts_, so the saved counts are
  // reinstated afterwards to keep save -> load -> save byte-identical.
  Refit();
  consecutive_outliers_ = static_cast<int>(outliers);
  selection_counts_.fill(0);
  const uint64_t counts = r.U64();
  for (uint64_t i = 0; i < counts; ++i) {
    const int64_t feature = r.I64();
    const uint64_t count = r.U64();
    if (feature < 0 || feature >= features::kNumFeatures) {
      throw obs::SnapshotError("predictor state names feature " + std::to_string(feature));
    }
    selection_counts_[static_cast<size_t>(feature)] = static_cast<size_t>(count);
  }
}

std::unique_ptr<CostPredictor> MakePredictor(const PredictorConfig& config) {
  switch (config.kind) {
    case PredictorKind::kEwma:
      return std::make_unique<EwmaPredictor>(config.ewma_alpha);
    case PredictorKind::kSlr:
      return std::make_unique<SlrPredictor>(features::kFeatPackets, config.history);
    case PredictorKind::kMlr: {
      MlrPredictor::Config c;
      c.history = config.history;
      c.fcbf_threshold = config.fcbf_threshold;
      return std::make_unique<MlrPredictor>(c);
    }
  }
  return nullptr;
}

}  // namespace shedmon::predict
