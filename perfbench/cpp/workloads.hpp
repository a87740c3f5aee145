#pragma once
// One benchmark sample: build the problem from a generated configuration,
// run the timed phase through the library's public entry points, and
// collect the result structs the library returns.
//
//   kind "solve"     StokesFOProblem + NewtonSolver::solve
//   kind "dist"      dist::solve_distributed
//   kind "forecast"  timestepping::ForecastDriver::run
//
// With a tracer the solve runs through the decorators of decorators.hpp
// (the distributed solve builds its per-rank problems internally, so only
// its root span is recorded; its split comes from DistResult).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mesh/ice_geometry.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorkloadConfig {
  std::string kind = "solve";  ///< solve | dist | forecast
  double dx_km = 128.0;
  int layers = 10;
  std::string jacobian = "assembled";  ///< assembled | matrix-free
  std::string scatter = "colored";     ///< serial | colored | atomic
  std::string simd = "auto";           ///< auto | off | 1 | 2 | 4 | 8
  std::string precond = "amg";         ///< amg | block-jacobi (dist)
  std::string smoother = "sgs";        ///< AMG smoother: sgs | chebyshev
  int ranks = 1;         ///< in-process ranks (dist, strips decomposition)
  double years = 20.0;  ///< forecast horizon
  mali::mesh::IceGeometryConfig geometry{};
};

/// The paper's fixed protocol: 8 damped-Newton steps per solve.
inline constexpr int kNewtonSteps = 8;

/// The acceptance path every workload is checked against: the same mesh
/// and geometry solved assembled, with the serial scatter and the scalar
/// kernels (run it with MALI_NUM_THREADS=1).  Forecasts stay forecasts.
[[nodiscard]] WorkloadConfig reference_config(const WorkloadConfig& cfg);

/// Root span of the timed phase of each kind.
[[nodiscard]] const char* root_span_name(const WorkloadConfig& cfg);

struct SampleResult {
  double setup_s = 0.0;  ///< CPU seconds of StokesFOProblem construction
  double solve_s = 0.0;  ///< wall seconds of the timed phase
  double cpu_s = 0.0;    ///< CPU seconds of the timed phase, all threads
  double mean_velocity = 0.0;
  /// Newton ||F|| history (rank 0's for the distributed solve; the
  /// per-solve final ||F|| for a forecast).
  std::vector<double> history;
  std::uint64_t solution_hash = 0;  ///< FNV-1a over the solution's bytes
  bool completed = true;            ///< forecast reached its horizon
  double max_mass_residual = 0.0;   ///< forecast ledger, relative
  /// Counters and times read from the library's result structs.
  std::map<std::string, double> layers;
  // Working-set record.
  std::size_t cells = 0;
  std::size_t dofs = 0;
  std::size_t nnz = 0;
  double operator_apply_bytes = 0.0;  ///< computed, one Jacobian apply
  double matrix_free_apply_bytes = 0.0;  ///< computed, one tangent apply
  double vcycle_bytes = 0.0;          ///< computed, one AMG V-cycle (0: none)
};

/// CPU seconds to construct the workload's StokesFOProblem (mesh,
/// geometry, DOF map, coloring, worksets) — the benchmark's setup_s.
[[nodiscard]] double time_setup(const WorkloadConfig& cfg);

/// Runs one sample.  `tracer` null = tracing off (no decorator anywhere).
[[nodiscard]] SampleResult run_sample(const WorkloadConfig& cfg,
                                      Tracer* tracer);

/// The paper's acceptance test: |value - ref| <= rtol |ref|, finite.
[[nodiscard]] bool within_rtol(double value, double ref, double rtol);

/// Empty when the sample passes the workload's correctness gate, else the
/// reason: the mean surface velocity within 1e-5 of the reference and, for
/// a forecast, a completed run whose mass ledger closes to 1e-12.
[[nodiscard]] std::string gate_failure(const WorkloadConfig& cfg,
                                       const SampleResult& s, double ref);

inline constexpr double kVelocityRtol = 1.0e-5;
inline constexpr double kMassResidualMax = 1.0e-12;

}  // namespace perfbench
