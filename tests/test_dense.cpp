// Dense linear-algebra tests: LU solves against known systems, determinant,
// inverse, singularity detection, agreement with random references, and
// the band LU (factored from CRS within its bandwidth) against the same
// matrix factored as a full band, bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "linalg/dense.hpp"
#include "linalg/gmres.hpp"

using namespace mali::linalg;

TEST(DenseMatrix, IndexingAndApply) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(0, 2) = 3.0;
  a(1, 0) = 4.0;
  a(1, 1) = 5.0;
  a(1, 2) = 6.0;
  const auto y = a.apply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  EXPECT_NEAR(a.frobenius_norm(), std::sqrt(91.0), 1e-14);
}

TEST(DenseLu, SolvesKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  DenseLu lu(std::move(a));
  std::vector<double> x = {5.0, 10.0};  // b
  lu.solve(x);
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
  EXPECT_NEAR(lu.determinant(), 5.0, 1e-14);
}

TEST(DenseLu, PivotingHandlesZeroLeadingEntry) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  DenseLu lu(std::move(a));
  std::vector<double> x = {2.0, 3.0};
  lu.solve(x);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-14);  // permutation parity
}

TEST(DenseLu, SingularThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  DenseLu lu;
  EXPECT_THROW(lu.factor(std::move(a)), mali::Error);
}

TEST(DenseLu, NonSquareThrows) {
  DenseLu lu;
  EXPECT_THROW(lu.factor(DenseMatrix(2, 3)), mali::Error);
}

TEST(DenseLu, UseBeforeFactorThrows) {
  DenseLu lu;
  std::vector<double> x = {1.0};
  EXPECT_THROW(lu.solve(x), mali::Error);
  EXPECT_THROW(lu.determinant(), mali::Error);
  EXPECT_THROW((void)lu.inverse(), mali::Error);
}

class DenseLuFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DenseLuFuzz, RandomSolveAndInverse) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const std::size_t n = 12;
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        a(i, j) = uni(rng);
        off += std::abs(a(i, j));
      }
    }
    a(i, i) = off + 0.5;  // well-conditioned
  }
  DenseMatrix copy = a;
  DenseLu lu(std::move(copy));

  // Solve: A x = b, check residual.
  std::vector<double> b(n), x;
  for (auto& v : b) v = uni(rng);
  x = b;
  lu.solve(x);
  const auto r = a.apply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-10);

  // Inverse: A * A^{-1} = I.
  const auto inv = lu.inverse();
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<double> e(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) e[k] = inv(k, c);
    const auto col = a.apply(e);
    for (std::size_t r2 = 0; r2 < n; ++r2) {
      EXPECT_NEAR(col[r2], r2 == c ? 1.0 : 0.0, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseLuFuzz, ::testing::Values(1u, 2u, 3u));

TEST(GmresHistory, MonotoneEstimatesRecorded) {
  // The per-iteration least-squares residual estimate is non-increasing.
  std::vector<std::size_t> rp{0}, cols;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) cols.push_back(i - 1);
    cols.push_back(i);
    if (i + 1 < n) cols.push_back(i + 1);
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    A.set(i, i, 2.5);
    if (i > 0) A.set(i, i - 1, -1.0);
    if (i + 1 < n) A.set(i, i + 1, -1.0);
  }
  IdentityPreconditioner M;
  std::vector<double> b(n, 1.0), x;
  const auto r = Gmres({1e-10, 500, 100}).solve(A, M, b, x);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.history.size(), r.iterations);
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i], r.history[i - 1] * (1.0 + 1e-12));
  }
  EXPECT_LT(r.history.back(), 1e-10);
}

// ---- band LU: factored within its bandwidth == factored as a full band ----

namespace {

/// Random n x n matrix with lower/upper bandwidths kl/ku: every in-band
/// entry is stored in the CRS pattern; the diagonal is small against the
/// subdiagonals, so partial pivoting swaps rows at most steps (and always
/// at the first).
struct BandSystem {
  CrsMatrix crs;
  DenseMatrix dense;
};

BandSystem random_band(std::size_t n, std::size_t kl, std::size_t ku,
                       unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  DenseMatrix d(n, n);
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j0 = i > kl ? i - kl : 0;
    const std::size_t j1 = std::min(n - 1, i + ku);
    for (std::size_t j = j0; j <= j1; ++j) {
      d(i, j) = i == j ? 1e-2 * uni(rng) : uni(rng);
      cols.push_back(j);
    }
    rp.push_back(cols.size());
  }
  if (kl > 0) {
    d(0, 0) = 1e-3;  // the first step must pivot
    d(1, 0) = 1.0;
  }
  CrsMatrix a(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      a.values()[k] = d(i, cols[k]);
    }
  }
  return {std::move(a), std::move(d)};
}

void expect_bitwise(double got, double want, const char* what,
                    std::size_t i) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << " entry " << i << ": " << got << " vs " << want;
}

}  // namespace

class BandLuFuzz
    : public ::testing::TestWithParam<
          std::tuple<unsigned, std::size_t, std::size_t>> {};

TEST_P(BandLuFuzz, MatchesFullBandBitwise) {
  const auto [seed, kl, ku] = GetParam();
  const std::size_t n = 40;
  const BandSystem sys = random_band(n, kl, ku, seed);

  const DenseLu band(sys.crs);
  const DenseLu full(sys.dense);
  // LAPACK band storage with kl / ku read from the pattern: ku widened by
  // kl for the pivot fill (capped at the full upper triangle).
  EXPECT_EQ(band.stored_entries(), n * (2 * kl + ku + 1));
  EXPECT_EQ(full.stored_entries(), n * (2 * n - 1));

  expect_bitwise(band.determinant(), full.determinant(), "determinant", 0);

  std::mt19937 rng(seed + 1000);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (int rhs = 0; rhs < 3; ++rhs) {
    std::vector<double> b(n);
    for (auto& v : b) v = uni(rng);
    std::vector<double> xb = b, xf = b;
    band.solve(xb);
    full.solve(xf);
    for (std::size_t i = 0; i < n; ++i) expect_bitwise(xb[i], xf[i], "x", i);
    // And it is a solve: A x = b.
    const auto r = sys.dense.apply(xb);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-8);
  }
}

// Symmetric and lopsided bands (kl != ku both ways), tridiagonal, and a
// band wide enough for the fill to reach the last column.
INSTANTIATE_TEST_SUITE_P(
    Bands, BandLuFuzz,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{7}),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{30})));

TEST(BandLu, SingularBandThrowsTypedError) {
  // Tridiagonal with an all-zero column 3: elimination meets a zero pivot
  // column inside the band.
  BandSystem sys = random_band(8, 1, 1, 9u);
  const auto& rp = sys.crs.row_ptr();
  const auto& cols = sys.crs.cols();
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (cols[k] == 3) sys.crs.values()[k] = 0.0;
    }
  }
  DenseLu lu;
  EXPECT_THROW(lu.factor(sys.crs), mali::Error);
  EXPECT_FALSE(lu.factored());
}

TEST(BandLu, NonSquareCrsThrows) {
  const std::vector<std::size_t> rp{0, 1, 2};
  const std::vector<std::size_t> cols{0, 2};  // column 2 of a 2-row matrix
  DenseLu lu;
  EXPECT_THROW(lu.factor(CrsMatrix(rp, cols)), mali::Error);
}
