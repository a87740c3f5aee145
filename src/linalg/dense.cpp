#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>

namespace mali::linalg {

void DenseLu::allocate(std::size_t n, std::size_t kl, std::size_t ku) {
  n_ = 0;  // unfactored until factor_band() succeeds
  kl_ = kl;
  kuf_ = std::min(ku + kl, n - 1);
  ldab_ = kuf_ + kl + 1;
  ab_.assign(ldab_ * n, 0.0);
  piv_.assign(n, 0);
}

void DenseLu::factor(const DenseMatrix& a) {
  MALI_CHECK_MSG(a.rows() == a.cols(), "LU requires a square matrix");
  const std::size_t n = a.rows();
  MALI_CHECK_MSG(n > 0, "LU of an empty matrix");
  allocate(n, n - 1, n - 1);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) at(i, j) = a(i, j);
  }
  factor_band(n);
}

void DenseLu::factor(const CrsMatrix& a) {
  const std::size_t n = a.n_rows();
  MALI_CHECK_MSG(n > 0, "LU of an empty matrix");
  const auto& rp = a.row_ptr();
  const auto& cs = a.cols();
  const auto& vs = a.values();
  std::size_t kl = 0, ku = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      MALI_CHECK_MSG(cs[k] < n, "LU requires a square matrix");
      kl = std::max(kl, i > cs[k] ? i - cs[k] : 0);
      ku = std::max(ku, cs[k] > i ? cs[k] - i : 0);
    }
  }
  allocate(n, kl, ku);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) at(i, cs[k]) = vs[k];
  }
  factor_band(n);
}

void DenseLu::factor_band(std::size_t n) {
  pivot_sign_ = 1;
  for (std::size_t k = 0; k < n; ++k) {
    // Rows k..i_end-1 hold column k's band; columns k..j_end-1 hold the
    // (fill-widened) band of rows k and its pivot.
    const std::size_t i_end = std::min(n, k + kl_ + 1);
    const std::size_t j_end = std::min(n, k + kuf_ + 1);
    std::size_t p = k;
    double best = std::abs(at(k, k));
    for (std::size_t i = k + 1; i < i_end; ++i) {
      const double v = std::abs(at(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    MALI_CHECK_MSG(best > 0.0, "LU: singular matrix");
    piv_[k] = p;
    if (p != k) {
      pivot_sign_ = -pivot_sign_;
      for (std::size_t j = k; j < j_end; ++j) std::swap(at(k, j), at(p, j));
    }
    double* const colk = &at(k, k);
    const double inv = 1.0 / colk[0];
    const std::size_t m = i_end - k - 1;  // multipliers below the pivot
    for (std::size_t i = 1; i <= m; ++i) colk[i] *= inv;
    for (std::size_t j = k + 1; j < j_end; ++j) {
      double* const colj = &at(k, j);
      const double akj = colj[0];
      if (akj == 0.0) continue;
      for (std::size_t i = 1; i <= m; ++i) colj[i] -= colk[i] * akj;
    }
  }
  n_ = n;
}

void DenseLu::solve(std::vector<double>& x) const {
  MALI_CHECK_MSG(factored(), "solve() before factor()");
  MALI_CHECK(x.size() == n_);
  // Forward: L y = P b, one pivot swap per column as the factorization
  // made it (L's columns were never swapped after the fact).
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t p = piv_[k];
    if (p != k) std::swap(x[k], x[p]);
    const double xk = x[k];
    const std::size_t i_end = std::min(n_, k + kl_ + 1);
    for (std::size_t i = k + 1; i < i_end; ++i) x[i] -= at(i, k) * xk;
  }
  // Backward: U x = y, column-oriented.
  for (std::size_t k = n_; k-- > 0;) {
    x[k] /= at(k, k);
    const double xk = x[k];
    for (std::size_t i = k > kuf_ ? k - kuf_ : 0; i < k; ++i) {
      x[i] -= at(i, k) * xk;
    }
  }
}

double DenseLu::determinant() const {
  MALI_CHECK_MSG(factored(), "determinant() before factor()");
  double det = static_cast<double>(pivot_sign_);
  for (std::size_t k = 0; k < n_; ++k) det *= at(k, k);
  return det;
}

DenseMatrix DenseLu::inverse() const {
  MALI_CHECK_MSG(factored(), "inverse() before factor()");
  DenseMatrix inv(n_, n_);
  std::vector<double> e(n_, 0.0);
  for (std::size_t c = 0; c < n_; ++c) {
    std::fill(e.begin(), e.end(), 0.0);
    e[c] = 1.0;
    solve(e);
    for (std::size_t r = 0; r < n_; ++r) inv(r, c) = e[r];
  }
  return inv;
}

}  // namespace mali::linalg
