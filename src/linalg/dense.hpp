#pragma once
// Small dense linear algebra: column-major matrices and a band LU
// factorization (partial pivoting) with solves and inverses — the direct
// coarse solve of the semicoarsening AMG.

#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "portability/common.hpp"

namespace mali::linalg {

/// Column-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), a_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    MALI_ASSERT(r < rows_ && c < cols_);
    return a_[r + c * rows_];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    MALI_ASSERT(r < rows_ && c < cols_);
    return a_[r + c * rows_];
  }

  [[nodiscard]] const std::vector<double>& data() const noexcept { return a_; }
  [[nodiscard]] std::vector<double>& data() noexcept { return a_; }

  /// y = A x.
  [[nodiscard]] std::vector<double> apply(const std::vector<double>& x) const {
    MALI_CHECK(x.size() == cols_);
    std::vector<double> y(rows_, 0.0);
    for (std::size_t c = 0; c < cols_; ++c) {
      const double xc = x[c];
      for (std::size_t r = 0; r < rows_; ++r) y[r] += a_[r + c * rows_] * xc;
    }
    return y;
  }

  [[nodiscard]] double frobenius_norm() const {
    double s = 0.0;
    for (double v : a_) s += v * v;
    return std::sqrt(s);
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> a_;
};

/// LU factorization with partial pivoting of a square matrix with lower
/// bandwidth kl and upper bandwidth ku, held in LAPACK-style band storage
/// (the dgbtrf layout): the upper band is widened by kl to hold the fill the
/// row swaps bring in, pivoting searches only the kl rows below the
/// diagonal, and the swaps are applied to the right-hand side inside the
/// forward solve.  A dense matrix is the case kl = ku = n - 1.
///
/// The band limits never change a nonzero of the factors or of a solve
/// against the dense algorithm: every in-band entry receives the same
/// updates in the same order (k ascending), every skipped update would have
/// subtracted an exact zero, and the strict `>` pivot search only ever sees
/// zeros below row k + kl.  Only the sign of a zero can differ.
class DenseLu {
 public:
  DenseLu() = default;
  explicit DenseLu(const DenseMatrix& a) { factor(a); }
  explicit DenseLu(const CrsMatrix& a) { factor(a); }

  /// Factors a dense A as the full band (throws mali::Error when singular).
  void factor(const DenseMatrix& a);
  /// Factors a sparse A straight from CRS, with kl and ku read from its
  /// sparsity pattern (throws mali::Error when singular).
  void factor(const CrsMatrix& a);

  [[nodiscard]] bool factored() const noexcept { return n_ > 0; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Doubles the band storage holds (L, U and the pivot-fill rows): what
  /// one solve streams.
  [[nodiscard]] std::size_t stored_entries() const noexcept {
    return ab_.size();
  }

  /// Solves A x = b in place.
  void solve(std::vector<double>& x) const;

  /// Determinant from the factorization (sign includes pivoting parity).
  [[nodiscard]] double determinant() const;

  /// Explicit inverse (column-by-column solves).
  [[nodiscard]] DenseMatrix inverse() const;

 private:
  /// Zeroed band storage for an n x n matrix with bandwidths kl / ku.
  void allocate(std::size_t n, std::size_t kl, std::size_t ku);
  /// In-place banded LU of the staged matrix.
  void factor_band(std::size_t n);

  /// Entry (i, j), which must lie within the stored band.
  [[nodiscard]] double& at(std::size_t i, std::size_t j) noexcept {
    return ab_[kuf_ + i - j + j * ldab_];
  }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
    return ab_[kuf_ + i - j + j * ldab_];
  }

  std::size_t n_ = 0;
  std::size_t kl_ = 0;    ///< lower bandwidth
  std::size_t kuf_ = 0;   ///< stored upper bandwidth: min(ku + kl, n - 1)
  std::size_t ldab_ = 0;  ///< rows per stored column: kuf + kl + 1
  std::vector<double> ab_;  ///< column-major band storage
  std::vector<std::size_t> piv_;
  int pivot_sign_ = 1;
};

}  // namespace mali::linalg
