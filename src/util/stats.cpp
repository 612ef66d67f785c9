#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace shedmon::util {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stdev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, size_t points) {
  std::vector<CdfPoint> cdf;
  if (values.empty() || points == 0) {
    return cdf;
  }
  std::sort(values.begin(), values.end());
  const double lo = values.front();
  const double hi = values.back();
  const double step = points > 1 ? (hi - lo) / static_cast<double>(points - 1) : 0.0;
  cdf.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    const double x = lo + step * static_cast<double>(i);
    const auto it = std::upper_bound(values.begin(), values.end(), x);
    const double f =
        static_cast<double>(it - values.begin()) / static_cast<double>(values.size());
    cdf.push_back({x, f});
  }
  return cdf;
}

double RelativeError(double estimate, double actual) {
  if (actual == 0.0) {
    return estimate == 0.0 ? 0.0 : 1.0;
  }
  return std::abs(1.0 - estimate / actual);
}

double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) {
    return 0.0;
  }
  // An exactly constant series has no correlation; its centred values need
  // not be exactly 0 (the mean of n equal values may not round back to the
  // value), and CorrelationFromSums would read that rounding as a signal.
  const auto constant = [n](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n),
                       [&v](double e) { return e == v.front(); });
  };
  if (constant(x) || constant(y)) {
    return 0.0;
  }
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  return CorrelationFromSums(sxy, sxx, syy);
}

double CorrelationFromSums(double sxy, double sxx, double syy) {
  if (sxx <= 1e-30 || syy <= 1e-30) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace shedmon::util
