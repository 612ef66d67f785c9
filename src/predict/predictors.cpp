#include "src/predict/predictors.h"

#include <algorithm>
#include <cmath>
#include <numeric>

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

void MlrPredictor::Refit() {
  model_valid_ = false;
  const size_t n = window_.size();
  if (n < config_.min_history) {
    return;
  }

  // FCBF over the full 42-feature matrix.
  Matrix x(n, features::kNumFeatures);
  std::vector<double> y(n);
  size_t r = 0;
  for (const auto& [f, cycles] : window_) {
    std::copy(f.begin(), f.end(), x.Row(r));
    y[r] = cycles;
    ++r;
  }
  const FcbfResult fcbf = SelectFeatures(x, y, config_.fcbf_threshold);
  last_selected_ = fcbf.selected;
  for (int idx : last_selected_) {
    ++selection_counts_[idx];
  }

  // OLS with intercept over the selected predictors (eq. 3.1 / 3.2). The
  // columns are standardized first so the singular-value truncation acts on
  // comparable scales; near-collinear feature combinations then fall below
  // rcond and are dropped from the fit instead of producing huge canceling
  // coefficients that explode out of sample.
  const size_t p = last_selected_.size();
  col_mean_.assign(p, 0.0);
  col_scale_.assign(p, 1.0);
  for (size_t c = 0; c < p; ++c) {
    double mean = 0.0;
    for (size_t row = 0; row < n; ++row) {
      mean += x.At(row, static_cast<size_t>(last_selected_[c]));
    }
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (size_t row = 0; row < n; ++row) {
      const double d = x.At(row, static_cast<size_t>(last_selected_[c])) - mean;
      var += d * d;
    }
    col_mean_[c] = mean;
    col_scale_[c] = std::sqrt(var / static_cast<double>(n));
    if (col_scale_[c] <= 1e-12) {
      col_scale_[c] = 1.0;  // constant column: contributes via the intercept
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

double MlrPredictor::Predict(const features::FeatureVector& f) {
  if (!model_valid_) {
    // Cold start: mean of whatever history exists.
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

void MlrPredictor::Observe(const features::FeatureVector& f, double cycles) {
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
  window_.emplace_back(f, cycles);
  while (window_.size() > config_.history) {
    window_.pop_front();
  }
  Refit();
}

void MlrPredictor::AmendLastObservation(double cycles) {
  if (window_.empty()) {
    return;
  }
  window_.back().second = cycles;
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
  for (const auto& [f, cycles] : window_) {
    for (const double v : f) {
      w.F64(v);
    }
    w.F64(cycles);
  }
  w.I64(consecutive_outliers_);
  w.U64(selection_counts_.size());
  for (const auto& [feature, count] : selection_counts_) {
    w.I64(feature);
    w.U64(count);
  }
}

void MlrPredictor::LoadState(obs::SnapshotReader& r) {
  CheckTag(r, name());
  window_.clear();
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    features::FeatureVector f{};
    for (double& v : f) {
      v = r.F64();
    }
    const double cycles = r.F64();
    window_.emplace_back(f, cycles);
  }
  const int64_t outliers = r.I64();
  // The fit is a pure function of the window; recompute it instead of
  // serializing coefficients so the model can never disagree with its own
  // history. Refit() increments selection_counts_, so the saved counts are
  // reinstated afterwards to keep save -> load -> save byte-identical.
  Refit();
  consecutive_outliers_ = static_cast<int>(outliers);
  selection_counts_.clear();
  const uint64_t counts = r.U64();
  for (uint64_t i = 0; i < counts; ++i) {
    const int64_t feature = r.I64();
    const uint64_t count = r.U64();
    selection_counts_[static_cast<int>(feature)] = static_cast<size_t>(count);
  }
}

std::unique_ptr<CostPredictor> MakePredictor(const PredictorConfig& config) {
  switch (config.kind) {
    case PredictorKind::kEwma:
      return std::make_unique<EwmaPredictor>(config.ewma_alpha);
    case PredictorKind::kSlr:
      return std::make_unique<SlrPredictor>(config.slr_feature, config.history);
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
