#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "decorators.hpp"
#include "dist/dist_solver.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "nonlinear/newton.hpp"
#include "perf/data_movement.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/common.hpp"
#include "timestepping/forecast_driver.hpp"
#include "util/fp_format.hpp"

namespace perfbench {

namespace {

using namespace mali;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds of the whole process, every thread (exited ones too).  The
// kernel counts a thread's run time without the time the hypervisor took
// its vCPU away (steal), which on a shared host can multiply wall time.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

physics::StokesFOConfig problem_config(const WorkloadConfig& cfg) {
  physics::StokesFOConfig pc;
  pc.geometry = cfg.geometry;
  pc.dx_m = cfg.dx_km * 1e3;
  pc.n_layers = cfg.layers;
  pc.scatter = physics::scatter_mode_from_string(cfg.scatter);
  pc.jacobian = linalg::jacobian_mode_from_string(cfg.jacobian);
  pc.simd_width = physics::simd_width_from_string(cfg.simd);
  return pc;
}

std::unique_ptr<linalg::SemicoarseningAmg> make_amg(
    const WorkloadConfig& cfg, const physics::StokesFOProblem& problem) {
  MALI_CHECK_MSG(cfg.precond == "amg",
                 "perfbench: serial workloads use the AMG preconditioner");
  linalg::AmgConfig acfg;
  if (cfg.smoother == "chebyshev") {
    acfg.smoother = linalg::AmgSmoother::kChebyshev;
  } else {
    MALI_CHECK_MSG(cfg.smoother == "sgs",
                   "perfbench: unknown smoother " + cfg.smoother);
  }
  return std::make_unique<linalg::SemicoarseningAmg>(problem.extrusion_info(),
                                                     acfg);
}

perf::JacobianApplyModel apply_model(const physics::StokesFOProblem& problem,
                                     std::size_t nnz) {
  perf::JacobianApplyModel m;
  m.n_rows = problem.n_dofs();
  m.nnz = nnz;
  m.n_cells = problem.mesh().n_cells();
  m.n_nodes = problem.mesh().n_nodes();
  m.num_nodes = problem.workset().num_nodes;
  m.n_basal_faces = problem.mesh().base().n_cells();
  return m;
}

/// Working-set record and the AMG accessors, read after the timed phase.
void record_sizes(const WorkloadConfig& cfg,
                  const physics::StokesFOProblem& problem,
                  const linalg::SemicoarseningAmg* amg, SampleResult& s) {
  s.cells = problem.mesh().n_cells();
  s.dofs = problem.n_dofs();
  s.nnz = problem.create_matrix().nnz();  // graph only
  const perf::JacobianApplyModel m = apply_model(problem, s.nnz);
  const bool matrix_free = cfg.jacobian == "matrix-free";
  s.operator_apply_bytes = static_cast<double>(
      matrix_free ? m.matrix_free_stream_bytes() : m.assembled_stream_bytes());
  s.matrix_free_apply_bytes =
      static_cast<double>(m.matrix_free_stream_bytes());
  if (amg == nullptr || amg->n_levels() == 0) return;
  perf::AmgCycleModel am;
  am.fine_apply_bytes = static_cast<std::size_t>(s.operator_apply_bytes);
  am.probe_applies = amg->probe_applies();
  am.fine_matrix_free = amg->fine_matrix_free();
  for (std::size_t l = 0; l < amg->n_levels(); ++l) {
    am.level_rows.push_back(amg->level_dofs(l));
    am.level_nnz.push_back(amg->level_nnz(l));
  }
  s.vcycle_bytes = static_cast<double>(am.vcycle_bytes());
  s.layers["linalg.amg.levels"] = static_cast<double>(amg->n_levels());
  s.layers["linalg.amg.probe_applies"] =
      static_cast<double>(amg->probe_applies());
  s.layers["linalg.amg.vcycle_mb_computed"] = s.vcycle_bytes / 1e6;
}

void run_solve(const WorkloadConfig& cfg, physics::StokesFOProblem& problem,
               Tracer* tracer, SampleResult& s) {
  const std::unique_ptr<linalg::SemicoarseningAmg> amg =
      make_amg(cfg, problem);
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = kNewtonSteps;
  ncfg.jacobian = problem.config().jacobian;
  const nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U = problem.analytic_initial_guess();

  nonlinear::NewtonResult r;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    const ScopedSpan root(tracer, root_span_name(cfg));
    if (tracer != nullptr) {
      TracedProblem traced_problem(problem, *tracer);
      TracedPreconditioner traced_M(*amg, *tracer);
      r = newton.solve(traced_problem, traced_M, U);
    } else {
      r = newton.solve(problem, *amg, U);
    }
  }
  s.solve_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - cpu0;

  s.mean_velocity = problem.mean_velocity(U);
  s.history = r.history;
  s.solution_hash = fnv1a(U);
  s.layers["nonlinear.newton_iters"] = r.iterations;
  s.layers["nonlinear.linear_failures"] = r.linear_failures;
  s.layers["linalg.krylov.iters"] =
      static_cast<double>(r.total_linear_iters);
  record_sizes(cfg, problem, amg.get(), s);
}

void run_dist(const WorkloadConfig& cfg, physics::StokesFOProblem& problem,
              Tracer* tracer, SampleResult& s) {
  dist::DistConfig d;
  d.ranks = cfg.ranks;
  d.decomp = dist::Decomp::kStrips;
  d.jacobian = problem.config().jacobian;
  d.precond = cfg.precond;
  d.newton.max_iters = kNewtonSteps;
  const std::vector<double> U0 = problem.analytic_initial_guess();

  dist::DistResult res;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    const ScopedSpan root(tracer, root_span_name(cfg));
    res = dist::solve_distributed(problem, d, &U0);
  }
  s.solve_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - cpu0;

  s.mean_velocity = problem.mean_velocity(res.U);
  MALI_CHECK(!res.ranks.empty());
  s.history = res.ranks[0].newton.history;
  s.solution_hash = fnv1a(res.U);
  double kernel_max = 0.0, kernel_sum = 0.0, halo_max = 0.0, total_max = 0.0;
  double halo_bytes = 0.0, messages = 0.0;
  for (const dist::DistRankReport& rep : res.ranks) {
    kernel_max = std::max(kernel_max, rep.kernel_s);
    kernel_sum += rep.kernel_s;
    halo_max = std::max(halo_max, rep.halo.total_s());
    total_max = std::max(total_max, rep.total_s);
    halo_bytes += static_cast<double>(rep.halo.bytes_sent);
    messages += static_cast<double>(rep.comm.sends);
  }
  const double n_ranks = static_cast<double>(res.ranks.size());
  const dist::DistRankReport& r0 = res.ranks[0];
  s.layers["dist.kernel_s.max"] = kernel_max;
  s.layers["dist.halo_s.max"] = halo_max;
  s.layers["dist.rank_total_s.max"] = total_max;
  s.layers["dist.imbalance"] =
      kernel_sum > 0.0 ? kernel_max / (kernel_sum / n_ranks) : 1.0;
  // The rank-reduced inner product keeps every rank in lockstep, so rank
  // 0's collective counts are every rank's.
  s.layers["dist.allreduces"] = static_cast<double>(r0.comm.allreduces);
  s.layers["dist.reduced_values"] =
      static_cast<double>(r0.comm.reduced_values);
  s.layers["dist.messages"] = messages;
  s.layers["dist.halo_mb"] = halo_bytes / 1e6;
  s.layers["dist.krylov.iters"] =
      static_cast<double>(r0.newton.total_linear_iters);
  s.layers["linalg.krylov.iters"] =
      static_cast<double>(r0.newton.total_linear_iters);
  s.layers["nonlinear.newton_iters"] = res.newton_iters;
  s.layers["nonlinear.linear_failures"] = r0.newton.linear_failures;
  record_sizes(cfg, problem, nullptr, s);
}

void run_forecast(const WorkloadConfig& cfg, physics::StokesFOProblem& problem,
                  Tracer* tracer, SampleResult& s) {
  // `mali forecast` defaults, spelled out.
  timestepping::ForecastConfig f;
  f.years = cfg.years;
  f.controller.dt_init = 1.0;
  f.controller.dt_min = 1.0 / 1024.0;
  f.controller.dt_max = 10.0;
  f.controller.growth = 1.25;
  f.controller.backoff = 0.5;
  f.controller.cfl_fraction = 0.5;
  f.forcing = "constant";
  f.velocity_every = 1;
  f.thermal_enabled = true;
  f.transport.flux = mpas::FluxScheme::kVanLeerMuscl;
  f.transport.time = mpas::TimeScheme::kHeunRk2;
  f.newton.max_iters = kNewtonSteps;
  const linalg::SemicoarseningAmg* amg = nullptr;
  f.make_precond = [&cfg, &amg, tracer](const physics::StokesFOProblem& p)
      -> std::unique_ptr<linalg::Preconditioner> {
    std::unique_ptr<linalg::SemicoarseningAmg> m = make_amg(cfg, p);
    amg = m.get();
    if (tracer == nullptr) return m;
    return std::make_unique<TracedPreconditioner>(std::move(m), *tracer);
  };
  timestepping::ForecastDriver driver(problem, f);

  timestepping::ForecastResult res;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    const ScopedSpan root(tracer, root_span_name(cfg));
    res = driver.run();
  }
  s.solve_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - cpu0;

  s.mean_velocity = res.mean_velocity;
  s.completed = res.completed;
  s.max_mass_residual = res.max_mass_residual;
  int newton_iters = 0;
  for (const timestepping::LedgerRow& row : res.ledger) {
    s.history.push_back(row.volume);
    newton_iters += row.newton_iters;
  }
  std::vector<double> state = res.U;
  state.insert(state.end(), res.H.begin(), res.H.end());
  state.insert(state.end(), res.T.begin(), res.T.end());
  s.solution_hash = fnv1a(state);
  s.layers["timestepping.steps"] = res.steps;
  s.layers["timestepping.velocity_solves"] = res.velocity_solves;
  s.layers["timestepping.rejections"] = res.rejections;
  s.layers["timestepping.newton_iters"] = newton_iters;
  s.layers["nonlinear.newton_iters"] = newton_iters;
  for (const char* phase : {"velocity", "thermal", "transport"}) {
    const auto& entries = res.timers.entries();
    const auto it = entries.find(phase);
    s.layers[std::string("timestepping.") + phase + "_s"] =
        it == entries.end() ? 0.0 : it->second.total;
  }
  record_sizes(cfg, problem, amg, s);
}

}  // namespace

WorkloadConfig reference_config(const WorkloadConfig& cfg) {
  WorkloadConfig ref = cfg;
  if (ref.kind != "forecast") ref.kind = "solve";
  ref.jacobian = "assembled";
  ref.scatter = "serial";
  ref.simd = "off";
  ref.precond = "amg";
  ref.smoother = "sgs";
  ref.ranks = 1;
  return ref;
}

const char* root_span_name(const WorkloadConfig& cfg) {
  if (cfg.kind == "dist") return "dist.solve";
  if (cfg.kind == "forecast") return "timestepping.run";
  return "nonlinear.solve";
}

double time_setup(const WorkloadConfig& cfg) {
  const double cpu0 = cpu_seconds();
  const physics::StokesFOProblem problem(problem_config(cfg));
  return cpu_seconds() - cpu0;
}

SampleResult run_sample(const WorkloadConfig& cfg, Tracer* tracer) {
  SampleResult s;
  const double cpu0 = cpu_seconds();
  physics::StokesFOProblem problem(problem_config(cfg));
  s.setup_s = cpu_seconds() - cpu0;
  if (cfg.kind == "solve") {
    run_solve(cfg, problem, tracer, s);
  } else if (cfg.kind == "dist") {
    run_dist(cfg, problem, tracer, s);
  } else {
    MALI_CHECK_MSG(cfg.kind == "forecast",
                   "perfbench: unknown workload kind " + cfg.kind);
    run_forecast(cfg, problem, tracer, s);
  }
  return s;
}

bool within_rtol(double value, double ref, double rtol) {
  return std::isfinite(value) && std::isfinite(ref) &&
         std::abs(value - ref) <= rtol * std::abs(ref);
}

std::string gate_failure(const WorkloadConfig& cfg, const SampleResult& s,
                         double ref) {
  if (!within_rtol(s.mean_velocity, ref, kVelocityRtol)) {
    return "mean velocity " + mali::util::format_double(s.mean_velocity) +
           " is not within rtol 1e-5 of the reference " +
           mali::util::format_double(ref);
  }
  if (cfg.kind == "forecast") {
    if (!s.completed) return "forecast did not reach its horizon";
    if (!(s.max_mass_residual <= kMassResidualMax)) {
      return "mass ledger residual " +
             mali::util::format_double(s.max_mass_residual) +
             " exceeds 1e-12 relative";
    }
  }
  return "";
}

}  // namespace perfbench
