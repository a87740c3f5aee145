// Semicoarsening AMG tests: hierarchy structure on extruded graphs,
// Galerkin coarse-operator properties, and V-cycle/GMRES convergence on an
// anisotropic model problem (the regime MDSC-AMG targets), and the cached
// Galerkin plan (bit-identical to a fresh product, rebuilt on a new graph).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <unordered_map>

#include "linalg/gmres.hpp"
#include "linalg/semicoarsening_amg.hpp"

using namespace mali::linalg;

namespace {

/// Anisotropic 3D Laplacian on an (nx x ny x nz) extruded grid with one dof
/// per node (dofs_per_node = 1) and strong vertical coupling (epsv >> 1
/// mimics thin ice layers).  Node id = column * nz + level.
struct ExtrudedProblem {
  CrsMatrix A;
  ExtrusionInfo info;
};

ExtrudedProblem make_extruded_laplacian(std::size_t nx, std::size_t ny,
                                        std::size_t nz, double epsv) {
  const std::size_t n_cols = nx * ny;
  const std::size_t n = n_cols * nz;
  auto node = [nz](std::size_t col, std::size_t lev) { return col * nz + lev; };
  auto col_id = [nx](std::size_t i, std::size_t j) { return j * nx + i; };

  std::vector<std::vector<std::pair<std::size_t, double>>> rows(n);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      for (std::size_t k = 0; k < nz; ++k) {
        const std::size_t r = node(col_id(i, j), k);
        double diag = 0.0;
        auto link = [&](std::size_t c, double w) {
          rows[r].push_back({c, -w});
          diag += w;
        };
        if (i > 0) link(node(col_id(i - 1, j), k), 1.0);
        if (i + 1 < nx) link(node(col_id(i + 1, j), k), 1.0);
        if (j > 0) link(node(col_id(i, j - 1), k), 1.0);
        if (j + 1 < ny) link(node(col_id(i, j + 1), k), 1.0);
        if (k > 0) link(node(col_id(i, j), k - 1), epsv);
        if (k + 1 < nz) link(node(col_id(i, j), k + 1), epsv);
        rows[r].push_back({r, diag + 0.05});  // slight shift: nonsingular
      }
    }
  }
  std::vector<std::size_t> rp{0}, cols;
  std::vector<double> vals;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    for (auto& [c, v] : row) {
      cols.push_back(c);
      vals.push_back(v);
    }
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t r = 0, k = 0; r < n; ++r) {
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p, ++k) {
      A.add(r, cols[p], vals[k]);
    }
  }

  ExtrusionInfo info;
  info.n_nodes = n;
  info.levels = nz;
  info.dofs_per_node = 1;
  info.dx = 1.0;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      info.column_x.push_back(static_cast<double>(i));
      info.column_y.push_back(static_cast<double>(j));
    }
  }
  return {std::move(A), std::move(info)};
}

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

double rel_residual(const CrsMatrix& A, const std::vector<double>& x,
                    const std::vector<double>& b) {
  std::vector<double> r;
  A.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r) / norm2(b);
}

}  // namespace

TEST(SemicoarseningAmg, BuildsVerticalThenHorizontalHierarchy) {
  auto prob = make_extruded_laplacian(12, 12, 16, 100.0);
  AmgConfig cfg;
  cfg.coarse_max_dofs = 50;
  SemicoarseningAmg amg(prob.info, cfg);
  amg.compute(prob.A);
  // 16 vertical levels halve: 16->8->4->2->1 (4 vertical coarsenings), then
  // horizontal 2x2 phases.
  ASSERT_GE(amg.n_levels(), 5u);
  EXPECT_EQ(amg.level_dofs(0), 12u * 12u * 16u);
  EXPECT_EQ(amg.level_dofs(1), 12u * 12u * 8u);
  EXPECT_EQ(amg.level_dofs(2), 12u * 12u * 4u);
  EXPECT_EQ(amg.level_dofs(3), 12u * 12u * 2u);
  EXPECT_EQ(amg.level_dofs(4), 12u * 12u * 1u);
  if (amg.n_levels() > 5) {
    EXPECT_LT(amg.level_dofs(5), amg.level_dofs(4));
  }
}

TEST(SemicoarseningAmg, OddLevelCountRoundsUp) {
  auto prob = make_extruded_laplacian(6, 6, 5, 50.0);
  AmgConfig cfg;
  cfg.coarse_max_dofs = 20;
  SemicoarseningAmg amg(prob.info, cfg);
  amg.compute(prob.A);
  EXPECT_EQ(amg.level_dofs(1), 6u * 6u * 3u);  // ceil(5/2)
  EXPECT_EQ(amg.level_dofs(2), 6u * 6u * 2u);
}

TEST(SemicoarseningAmg, SingleApplicationReducesResidual) {
  auto prob = make_extruded_laplacian(10, 10, 8, 100.0);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  const auto b = random_vec(prob.A.n_rows(), 5);
  std::vector<double> z;
  amg.apply(b, z);
  EXPECT_LT(rel_residual(prob.A, z, b), 0.5)
      << "one V-cycle should knock down most of the residual";
}

class AmgAnisotropy : public ::testing::TestWithParam<double> {};

TEST_P(AmgAnisotropy, GmresWithAmgConvergesFast) {
  const double epsv = GetParam();
  auto prob = make_extruded_laplacian(12, 12, 10, epsv);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  const auto b = random_vec(prob.A.n_rows(), 17);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.rel_tol = 1e-8;
  cfg.max_iters = 200;
  const auto r = Gmres(cfg).solve(prob.A, amg, b, x);
  EXPECT_TRUE(r.converged) << "epsv=" << epsv;
  EXPECT_LT(r.iterations, 60u) << "epsv=" << epsv;
  EXPECT_LT(rel_residual(prob.A, x, b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Anisotropies, AmgAnisotropy,
                         ::testing::Values(1.0, 10.0, 100.0, 1000.0));

TEST(SemicoarseningAmg, BeatsJacobiPreconditioning) {
  auto prob = make_extruded_laplacian(14, 14, 12, 200.0);
  const auto b = random_vec(prob.A.n_rows(), 23);
  GmresConfig cfg;
  cfg.rel_tol = 1e-8;
  cfg.max_iters = 2000;
  cfg.restart = 300;

  JacobiPreconditioner jac;
  jac.compute(prob.A);
  std::vector<double> xj;
  const auto rj = Gmres(cfg).solve(prob.A, jac, b, xj);

  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  std::vector<double> xa;
  const auto ra = Gmres(cfg).solve(prob.A, amg, b, xa);

  EXPECT_TRUE(ra.converged);
  EXPECT_LT(ra.iterations * 3, rj.iterations + 1)
      << "AMG should need far fewer iterations than Jacobi";
}

TEST(SemicoarseningAmg, TwoDofPerNodeBlocksStaySeparate) {
  // Same operator duplicated on two components; AMG must converge equally.
  auto scalar = make_extruded_laplacian(8, 8, 6, 80.0);
  const std::size_t n = scalar.A.n_rows();
  // Expand to 2 dofs/node with component-diagonal coupling.
  std::vector<std::size_t> rp{0}, cols;
  const auto& srp = scalar.A.row_ptr();
  const auto& scols = scalar.A.cols();
  const auto& svals = scalar.A.values();
  for (std::size_t r = 0; r < n; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (std::size_t k = srp[r]; k < srp[r + 1]; ++k) {
        cols.push_back(2 * scols[k] + static_cast<std::size_t>(c));
      }
      // keep columns sorted: they are, since scols sorted and stride 2.
      rp.push_back(cols.size());
    }
  }
  CrsMatrix A2(rp, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (std::size_t k = srp[r]; k < srp[r + 1]; ++k) {
        A2.set(2 * r + static_cast<std::size_t>(c),
               2 * scols[k] + static_cast<std::size_t>(c), svals[k]);
      }
    }
  }
  ExtrusionInfo info = scalar.info;
  info.dofs_per_node = 2;
  SemicoarseningAmg amg(info, AmgConfig{});
  amg.compute(A2);
  const auto b = random_vec(A2.n_rows(), 31);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.rel_tol = 1e-8;
  cfg.max_iters = 300;
  const auto r = Gmres(cfg).solve(A2, amg, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 80u);
}

TEST(SemicoarseningAmg, VCycleErrorPropagationContracts) {
  // Power iteration on the error operator E = I - M^{-1} A: the dominant
  // convergence factor of the stand-alone V-cycle must be well below 1 on
  // the anisotropic model problem (semicoarsening matched to the strong
  // vertical coupling).
  auto prob = make_extruded_laplacian(10, 10, 12, 200.0);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  const std::size_t n = prob.A.n_rows();
  auto e = random_vec(n, 77);
  double rho = 1.0;
  std::vector<double> Ae, z;
  for (int it = 0; it < 25; ++it) {
    prob.A.apply(e, Ae);
    amg.apply(Ae, z);
    double norm_new = 0.0, norm_old = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      norm_old += e[i] * e[i];
      e[i] -= z[i];
      norm_new += e[i] * e[i];
    }
    rho = std::sqrt(norm_new / norm_old);
    // Renormalize to avoid underflow.
    const double s = 1.0 / std::sqrt(norm_new);
    for (auto& v : e) v *= s;
  }
  EXPECT_LT(rho, 0.7) << "V-cycle convergence factor too weak";
  EXPECT_GT(rho, 0.0);
}

TEST(SemicoarseningAmg, ApplyBeforeComputeThrows) {
  auto prob = make_extruded_laplacian(4, 4, 4, 10.0);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  std::vector<double> z;
  EXPECT_THROW(amg.apply(random_vec(prob.A.n_rows(), 1), z), mali::Error);
}

// ---- Galerkin plan: symbolic product cached per fine graph ----

namespace {

/// A's graph with new seeded values (diagonally dominant, nonsymmetric).
CrsMatrix revalued(const CrsMatrix& A, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> off(-1.5, -0.5);
  CrsMatrix B(A.row_ptr(), A.cols());
  for (std::size_t r = 0; r < A.n_rows(); ++r) {
    double sum = 0.0;
    std::size_t diag = CrsMatrix::npos;
    for (std::size_t k = A.row_ptr()[r]; k < A.row_ptr()[r + 1]; ++k) {
      if (A.cols()[k] == r) {
        diag = k;
        continue;
      }
      B.values()[k] = A.values()[k] * -off(rng);
      sum += std::abs(B.values()[k]);
    }
    B.values()[diag] = sum + 0.1;
  }
  return B;
}

/// A with every off-diagonal entry (r, c), (7 r + c) % 5 == 0, dropped
/// from the graph (the diagonal stays dominant).
CrsMatrix pruned(const CrsMatrix& A) {
  std::vector<std::size_t> rp{0}, cols;
  std::vector<double> vals;
  for (std::size_t r = 0; r < A.n_rows(); ++r) {
    for (std::size_t k = A.row_ptr()[r]; k < A.row_ptr()[r + 1]; ++k) {
      const std::size_t c = A.cols()[k];
      if (c != r && (7 * r + c) % 5 == 0) continue;
      cols.push_back(c);
      vals.push_back(A.values()[k]);
    }
    rp.push_back(cols.size());
  }
  CrsMatrix B(rp, cols);
  B.values() = vals;
  return B;
}

/// Reference P^T A P: a per-coarse-row hash map fed in fine storage order.
CrsMatrix hashed_galerkin(const CrsMatrix& A,
                          const std::vector<std::size_t>& agg,
                          std::size_t n_coarse) {
  std::vector<std::unordered_map<std::size_t, double>> rows(n_coarse);
  for (std::size_t i = 0; i < A.n_rows(); ++i) {
    for (std::size_t k = A.row_ptr()[i]; k < A.row_ptr()[i + 1]; ++k) {
      rows[agg[i]][agg[A.cols()[k]]] += A.values()[k];
    }
  }
  std::vector<std::size_t> rp{0}, cols;
  for (auto& row : rows) {
    std::vector<std::size_t> js;
    for (const auto& [J, v] : row) js.push_back(J);
    std::sort(js.begin(), js.end());
    cols.insert(cols.end(), js.begin(), js.end());
    rp.push_back(cols.size());
  }
  CrsMatrix Ac(rp, cols);
  for (std::size_t I = 0; I < n_coarse; ++I) {
    for (const auto& [J, v] : rows[I]) Ac.add(I, J, v);
  }
  return Ac;
}

void expect_same_matrix(const CrsMatrix& a, const CrsMatrix& b) {
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.values()[k]),
              std::bit_cast<std::uint64_t>(b.values()[k]))
        << "nonzero " << k;
  }
}

/// Same level matrices bit for bit, and the same V-cycle output.
void expect_same_hierarchy(const SemicoarseningAmg& a,
                           const SemicoarseningAmg& b) {
  ASSERT_EQ(a.n_levels(), b.n_levels());
  for (std::size_t l = 0; l < a.n_levels(); ++l) {
    SCOPED_TRACE(l);
    expect_same_matrix(a.level_matrix(l), b.level_matrix(l));
  }
  const auto r = random_vec(a.level_dofs(0), 5);
  std::vector<double> za, zb;
  a.apply(r, za);
  b.apply(r, zb);
  for (std::size_t i = 0; i < za.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(za[i]),
              std::bit_cast<std::uint64_t>(zb[i]))
        << "z entry " << i;
  }
}

AmgConfig plan_config() {
  AmgConfig cfg;
  cfg.coarse_max_dofs = 60;  // 720 -> 360 -> 180 -> 90 -> 2x2 columns
  return cfg;
}

}  // namespace

TEST(GalerkinPlan, CachedProductMatchesFreshBitwise) {
  const auto prob = make_extruded_laplacian(10, 9, 8, 100.0);
  SemicoarseningAmg cached(prob.info, plan_config());
  cached.compute(prob.A);
  ASSERT_EQ(cached.n_levels(), 5u);
  const std::size_t builds = cached.galerkin_plan_builds();
  EXPECT_EQ(builds, cached.n_levels() - 1);

  // Level 0 -> 1 pairs adjacent vertical levels of each column.
  const std::size_t n = prob.A.n_rows();
  std::vector<std::size_t> agg(n);
  for (std::size_t i = 0; i < n; ++i) agg[i] = i / 8 * 4 + i % 8 / 2;

  for (const unsigned seed : {11u, 12u}) {
    SCOPED_TRACE(seed);
    const CrsMatrix A = revalued(prob.A, seed);
    cached.compute(A);
    EXPECT_EQ(cached.galerkin_plan_builds(), builds) << "plan not reused";
    SemicoarseningAmg fresh(prob.info, plan_config());
    fresh.compute(A);
    expect_same_hierarchy(cached, fresh);
    expect_same_matrix(cached.level_matrix(1), hashed_galerkin(A, agg, n / 2));
  }
}

TEST(GalerkinPlan, ChangedFineGraphRebuildsPlan) {
  const auto prob = make_extruded_laplacian(10, 9, 8, 100.0);
  const CrsMatrix B = pruned(prob.A);
  ASSERT_EQ(B.n_rows(), prob.A.n_rows());
  ASSERT_LT(B.nnz(), prob.A.nnz());

  SemicoarseningAmg amg(prob.info, plan_config());
  amg.compute(prob.A);
  const std::size_t builds = amg.galerkin_plan_builds();

  amg.compute(B);
  EXPECT_EQ(amg.galerkin_plan_builds(), 2 * builds);
  SemicoarseningAmg fresh_b(prob.info, plan_config());
  fresh_b.compute(B);
  expect_same_hierarchy(amg, fresh_b);

  // Back to the first graph: rebuilt again, never served B's slots.
  amg.compute(prob.A);
  EXPECT_EQ(amg.galerkin_plan_builds(), 3 * builds);
  SemicoarseningAmg fresh_a(prob.info, plan_config());
  fresh_a.compute(prob.A);
  expect_same_hierarchy(amg, fresh_a);
}
