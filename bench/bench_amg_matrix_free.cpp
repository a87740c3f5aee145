// Matrix-free GMRES preconditioning: block-Jacobi vs operator-probed
// semicoarsening AMG.
//
// The matrix-free Jacobian path never assembles the global matrix, which
// historically cut it off from the production preconditioner (MDSC-AMG
// consumes a CRS matrix).  The operator-probed compute() closes that gap:
// a constant number of colored probe applies (<= 27 * dofs_per_node on the
// extruded lattice) reconstructs the fine matrix once per Newton step, the
// usual Galerkin hierarchy is built on it, and with the Chebyshev smoother
// the fine level afterwards runs entirely through the live operator.
//
// This bench answers two questions on the reduced Antarctica mesh:
//   1. single linear solve — GMRES iterations and wall time under
//      block-Jacobi vs probed AMG (same matrix-free operator, same rhs);
//   2. full Newton run at equal tolerance — total GMRES iterations in
//      matrix-free mode with each preconditioner, plus the assembled+AMG
//      reference trajectory.
// The probe setup cost is reported against the per-iteration savings via
// perf::AmgCycleModel.
//
//   bench_amg_matrix_free [--dx-km F] [--layers N] [--steps N]
//
// Thread count follows MALI_NUM_THREADS (default: hardware concurrency).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "linalg/block_jacobi.hpp"
#include "linalg/gmres.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "nonlinear/newton.hpp"
#include "perf/data_movement.hpp"
#include "perf/report.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/thread_pool.hpp"
#include "portability/timer.hpp"

using namespace mali;

namespace {

double arg_num(int argc, char** argv, const std::string& key, double dflt) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return std::atof(argv[i + 1]);
  }
  return dflt;
}

physics::StokesFOConfig make_config(int argc, char** argv) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = arg_num(argc, argv, "--dx-km", 64.0) * 1e3;
  cfg.n_layers = static_cast<int>(arg_num(argc, argv, "--layers", 10));
  cfg.jacobian = linalg::JacobianMode::kMatrixFree;
  return cfg;
}

struct NewtonRun {
  nonlinear::NewtonResult result;
  double seconds = 0.0;
};

NewtonRun run_newton(physics::StokesFOConfig cfg, linalg::JacobianMode mode,
                     linalg::Preconditioner& M, int steps) {
  cfg.jacobian = mode;
  physics::StokesFOProblem problem(cfg);
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = steps;
  ncfg.jacobian = mode;
  const nonlinear::NewtonSolver newton(ncfg);
  auto U = problem.analytic_initial_guess();
  pk::Timer timer;
  NewtonRun run;
  run.result = newton.solve(problem, M, U);
  run.seconds = timer.seconds();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const physics::StokesFOConfig cfg = make_config(argc, argv);
  const int steps = static_cast<int>(arg_num(argc, argv, "--steps", 8));

  physics::StokesFOProblem problem(cfg);
  const std::size_t n = problem.n_dofs();
  std::printf(
      "Matrix-free preconditioning: block-Jacobi vs operator-probed AMG — "
      "%zu cells, %zu dofs, %zu threads\n\n",
      problem.mesh().n_cells(), n, pk::ThreadPool::instance().size());

  // ---- 1. single linear solve at the analytic initial guess ----
  const auto U = problem.analytic_initial_guess();
  const auto op = problem.jacobian_operator(U);
  std::vector<double> F(n);
  problem.residual(U, F);
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = -F[i];

  linalg::GmresConfig gcfg;
  const linalg::Gmres gmres(gcfg);
  pk::Timer timer;

  linalg::BlockJacobiPreconditioner bj(2);
  timer.reset();
  bj.compute(*op);
  const double bj_setup_s = timer.seconds();
  std::vector<double> dU(n, 0.0);
  timer.reset();
  const auto bj_lin = gmres.solve(*op, bj, rhs, dU);
  const double bj_solve_s = timer.seconds();

  linalg::AmgConfig acfg;
  acfg.smoother = linalg::AmgSmoother::kChebyshev;
  linalg::SemicoarseningAmg amg(problem.extrusion_info(), acfg);
  timer.reset();
  amg.compute(*op);
  const double amg_setup_s = timer.seconds();
  std::fill(dU.begin(), dU.end(), 0.0);
  timer.reset();
  const auto amg_lin = gmres.solve(*op, amg, rhs, dU);
  const double amg_solve_s = timer.seconds();

  std::printf("Single GMRES solve of J dU = -F (rel tol %.0e), matrix-free "
              "operator:\n",
              gcfg.rel_tol);
  perf::Table t({"preconditioner", "setup (ms)", "iterations", "rel residual",
                 "solve (ms)"});
  t.add_row({"block-Jacobi", perf::fmt(bj_setup_s * 1e3, 4),
             std::to_string(bj_lin.iterations),
             perf::fmt_sci(bj_lin.rel_residual),
             perf::fmt(bj_solve_s * 1e3, 4)});
  t.add_row({"probed AMG", perf::fmt(amg_setup_s * 1e3, 4),
             std::to_string(amg_lin.iterations),
             perf::fmt_sci(amg_lin.rel_residual),
             perf::fmt(amg_solve_s * 1e3, 4)});
  t.print(std::cout);

  // ---- byte model: what the probe costs, what each V-cycle streams ----
  perf::JacobianApplyModel jm;
  jm.n_rows = n;
  jm.nnz = problem.create_matrix().nnz();
  jm.n_cells = problem.mesh().n_cells();
  jm.n_nodes = problem.mesh().n_nodes();
  jm.num_nodes = problem.workset().num_nodes;
  jm.n_basal_faces =
      problem.config().mms.enabled ? 0 : problem.mesh().base().n_cells();
  perf::AmgCycleModel am;
  am.fine_apply_bytes = jm.matrix_free_stream_bytes();
  am.probe_applies = amg.probe_applies();
  am.fine_matrix_free = amg.fine_matrix_free();
  am.coarse_factor_entries = amg.coarse_factor_entries();
  for (std::size_t l = 0; l < amg.n_levels(); ++l) {
    am.level_rows.push_back(amg.level_dofs(l));
    am.level_nnz.push_back(amg.level_nnz(l));
  }
  std::printf(
      "\nperf::AmgCycleModel — %zu levels, %zu probe applies at setup:\n"
      "  setup %.3f MB streamed, V-cycle %.3f MB per application\n"
      "  (one matrix-free operator apply streams %.3f MB)\n",
      amg.n_levels(), am.probe_applies, am.setup_bytes() / 1e6,
      am.vcycle_bytes() / 1e6, am.fine_apply_bytes / 1e6);

  // ---- 2. full Newton runs at equal tolerance ----
  std::printf("\nFull Newton run (max %d steps, linear tol %.0e):\n", steps,
              gcfg.rel_tol);
  linalg::BlockJacobiPreconditioner bj2(2);
  const auto run_bj =
      run_newton(cfg, linalg::JacobianMode::kMatrixFree, bj2, steps);
  linalg::SemicoarseningAmg amg_mf(problem.extrusion_info(), acfg);
  const auto run_amg =
      run_newton(cfg, linalg::JacobianMode::kMatrixFree, amg_mf, steps);
  linalg::SemicoarseningAmg amg_asm(problem.extrusion_info());
  const auto run_ref =
      run_newton(cfg, linalg::JacobianMode::kAssembled, amg_asm, steps);

  perf::Table nt({"configuration", "newton steps", "total GMRES iters",
                  "final ||F||", "time (s)"});
  const auto row = [&](const char* name, const NewtonRun& r) {
    nt.add_row({name, std::to_string(r.result.iterations),
                std::to_string(r.result.total_linear_iters),
                perf::fmt_sci(r.result.residual_norm),
                perf::fmt(r.seconds, 4)});
  };
  row("matrix-free + block-Jacobi", run_bj);
  row("matrix-free + probed AMG", run_amg);
  row("assembled + AMG (reference)", run_ref);
  nt.print(std::cout);

  std::printf(
      "\nReading: the probed AMG pays %zu operator applies per Newton step\n"
      "at setup and repays them with the multigrid iteration count — total\n"
      "GMRES iterations drop well below block-Jacobi while matching the\n"
      "assembled+AMG reference, so the matrix-free path keeps its bytes/\n"
      "iteration advantage without giving up the production preconditioner.\n",
      amg.probe_applies());
  const bool amg_wins =
      run_amg.result.total_linear_iters < run_bj.result.total_linear_iters;
  std::printf("probed AMG total iters %s block-Jacobi (%zu vs %zu)\n",
              amg_wins ? "<" : ">=", run_amg.result.total_linear_iters,
              run_bj.result.total_linear_iters);
  return amg_wins ? 0 : 1;
}
