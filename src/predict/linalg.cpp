#include "src/predict/linalg.h"

#include <cmath>

namespace shedmon::predict {

EigenDecomposition SymmetricEigen(const SymmetricMatrix& a) {
  const size_t p = a.size();
  Matrix m(p, p);
  EigenDecomposition result{std::vector<double>(p, 0.0), Matrix(p, p)};
  for (size_t i = 0; i < p; ++i) {
    result.vectors.At(i, i) = 1.0;
    for (size_t j = i; j < p; ++j) {
      m.At(i, j) = a.At(i, j);
      m.At(j, i) = a.At(i, j);
    }
  }

  // Each rotation M <- JᵀMJ zeroes one off-diagonal pair; sweeps repeat until
  // every pair is negligible next to its diagonal entries. V accumulates J.
  constexpr int kMaxSweeps = 50;
  constexpr double kOffTol = 1e-15;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (size_t i = 0; i + 1 < p; ++i) {
      for (size_t j = i + 1; j < p; ++j) {
        const double alpha = m.At(i, i);
        const double beta = m.At(j, j);
        const double gamma = m.At(i, j);
        if (gamma == 0.0 || std::abs(gamma) <= kOffTol * std::sqrt(std::abs(alpha * beta))) {
          continue;
        }
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (size_t k = 0; k < p; ++k) {
          const double mi = m.At(k, i);
          const double mj = m.At(k, j);
          m.At(k, i) = c * mi - s * mj;
          m.At(k, j) = s * mi + c * mj;
        }
        for (size_t k = 0; k < p; ++k) {
          const double mi = m.At(i, k);
          const double mj = m.At(j, k);
          m.At(i, k) = c * mi - s * mj;
          m.At(j, k) = s * mi + c * mj;
        }
        for (size_t k = 0; k < p; ++k) {
          const double vi = result.vectors.At(k, i);
          const double vj = result.vectors.At(k, j);
          result.vectors.At(k, i) = c * vi - s * vj;
          result.vectors.At(k, j) = s * vi + c * vj;
        }
      }
    }
    if (!rotated) {
      break;
    }
  }
  for (size_t i = 0; i < p; ++i) {
    result.values[i] = m.At(i, i);
  }
  return result;
}

}  // namespace shedmon::predict
