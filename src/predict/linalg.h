#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace shedmon::predict {

// Minimal dense row-major matrix, sized for regression problems of at most a
// few hundred rows by a few dozen columns.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// Symmetric matrix stored as its packed upper triangle, row by row; (i, j)
// and (j, i) are one element.
class SymmetricMatrix {
 public:
  SymmetricMatrix() = default;
  explicit SymmetricMatrix(size_t n) : n_(n), data_(n * (n + 1) / 2, 0.0) {}

  double& At(size_t i, size_t j) { return data_[Index(i, j)]; }
  double At(size_t i, size_t j) const { return data_[Index(i, j)]; }

  size_t size() const { return n_; }
  // (0,0), (0,1), ..., (0,n-1), (1,1), ..., (n-1,n-1).
  const std::vector<double>& packed() const { return data_; }
  std::vector<double>& packed() { return data_; }

 private:
  size_t Index(size_t i, size_t j) const {
    if (i > j) {
      std::swap(i, j);
    }
    return i * (2 * n_ - i - 1) / 2 + j;
  }

  size_t n_ = 0;
  std::vector<double> data_;
};

struct EigenDecomposition {
  std::vector<double> values;  // unordered; values[k] belongs to column k of vectors
  Matrix vectors;              // orthonormal eigenvectors, one per column
};

// Eigendecomposition of a small symmetric matrix by cyclic Jacobi rotations.
// MLR solves its normal equations with it (§3.2.2): truncating eigenvalues
// of AᵀA at rcond²·λmax gives the same minimum-norm solution as truncating
// singular values of A at rcond·σmax, for rank-deficient systems (collinear
// features during a SYN flood) included.
EigenDecomposition SymmetricEigen(const SymmetricMatrix& a);

}  // namespace shedmon::predict
