// Minimal dense linear algebra for the neural-network stack. A Vector is a
// plain std::vector<double>; Matrix is a row-major dense matrix with just
// the operations training needs. No expression templates — the networks
// here are small (tens of thousands of parameters) and clarity wins.
#pragma once

#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace cimnav::nn {

using Vector = std::vector<double>;

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              fill) {
    CIMNAV_REQUIRE(rows > 0 && cols > 0, "matrix dims must be positive");
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// y = A x  (rows x cols) * (cols) -> (rows).
  Vector matvec(const Vector& x) const {
    CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(cols_),
                   "matvec size mismatch");
    Vector y(static_cast<std::size_t>(rows_));
    matvec_into(x.data(), y.data());
    return y;
  }

  /// Unchecked y = A x over raw spans of cols() and rows() values; the
  /// kernel behind matvec (one row dot per output, in column order).
  void matvec_into(const double* x, double* y) const {
    for (int r = 0; r < rows_; ++r) {
      double s = 0.0;
      const std::size_t base =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
      for (int c = 0; c < cols_; ++c)
        s += data_[base + static_cast<std::size_t>(c)] *
             x[static_cast<std::size_t>(c)];
      y[static_cast<std::size_t>(r)] = s;
    }
  }

  /// y = A^T x  (rows x cols)^T * (rows) -> (cols).
  Vector matvec_transposed(const Vector& x) const {
    CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(rows_),
                   "matvec_transposed size mismatch");
    Vector y(static_cast<std::size_t>(cols_));
    matvec_transposed_into(x.data(), y.data());
    return y;
  }

  /// Unchecked y = A^T x over raw spans of rows() and cols() values; the
  /// kernel behind matvec_transposed (row sweeps in row order).
  void matvec_transposed_into(const double* x, double* y) const {
    for (int c = 0; c < cols_; ++c) y[static_cast<std::size_t>(c)] = 0.0;
    for (int r = 0; r < rows_; ++r) {
      const double xr = x[static_cast<std::size_t>(r)];
      const std::size_t base =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
      for (int c = 0; c < cols_; ++c)
        y[static_cast<std::size_t>(c)] +=
            data_[base + static_cast<std::size_t>(c)] * xr;
    }
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// 0/1 dropout mask over a layer's neurons.
using Mask = std::vector<std::uint8_t>;

}  // namespace cimnav::nn
