#include "sampling.hpp"

#include <cstring>
#include <exception>
#include <utility>

#include "decorators.hpp"

namespace perfbench {

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

bool same_answer(const SampleResult& a, const SampleResult& b) {
  return same_bits(a.history, b.history) &&
         same_bits({a.mean_velocity}, {b.mean_velocity}) &&
         a.solution_hash == b.solution_hash;
}

void add_span_layers(const WorkloadConfig& cfg, const Tracer& tracer,
                     int run_id, SampleResult& s) {
  auto totals = layer_totals(tracer.spans(), run_id);
  const auto layer = [&totals](const char* name) { return totals[name]; };
  const LayerTotals residual = layer(kSpanResidual);
  const LayerTotals linearize = layer(kSpanLinearize);
  const LayerTotals apply = layer(kSpanJacobianApply);
  const LayerTotals setup = layer(kSpanPrecondSetup);
  const LayerTotals papply = layer(kSpanPrecondApply);
  const LayerTotals root = layer(root_span_name(cfg));
  auto& m = s.layers;
  m["physics.residual.calls"] = static_cast<double>(residual.calls);
  m["physics.residual.s"] = residual.total_s;
  m["physics.linearize.calls"] = static_cast<double>(linearize.calls);
  m["physics.linearize.s"] = linearize.total_s;
  m["physics.jacobian_apply.calls"] = static_cast<double>(apply.calls);
  m["physics.jacobian_apply.s"] = apply.total_s;
  m["physics.jacobian_apply.ns_per_cell"] =
      apply.calls == 0 ? 0.0
                       : 1e9 * apply.total_s /
                             (static_cast<double>(apply.calls) *
                              static_cast<double>(s.cells));
  m["physics.jacobian_apply.gbps_computed"] =
      apply.total_s <= 0.0 ? 0.0
                           : static_cast<double>(apply.calls) *
                                 s.matrix_free_apply_bytes / apply.total_s /
                                 1e9;
  m["linalg.precond_setup.calls"] = static_cast<double>(setup.calls);
  m["linalg.precond_setup.s"] = setup.total_s;
  m["linalg.precond_setup.self_s"] = setup.self_s;
  m["linalg.precond_apply.calls"] = static_cast<double>(papply.calls);
  m["linalg.precond_apply.s"] = papply.total_s;
  m["linalg.precond_apply.self_s"] = papply.self_s;
  // Flexible GMRES applies the preconditioner exactly once per iteration,
  // which is the only Krylov count a forecast exposes from outside.
  if (cfg.kind == "forecast") {
    m["linalg.krylov.iters"] = static_cast<double>(papply.calls);
  }
  // Newton's own work: the root span's self time, less (for a forecast)
  // the thermal and transport phases the driver times itself.
  double self = root.self_s;
  if (cfg.kind == "forecast") {
    self -= m["timestepping.thermal_s"] + m["timestepping.transport_s"];
  }
  m["nonlinear.self_s"] = self;
  m["trace.solve_s"] = s.solve_s;
}

void attempt(const WorkloadConfig& cfg, double reference, Tracer* tracer,
             int run_id, Run& run, bool timed, const SampleFn& sample) {
  ++run.attempted;
  try {
    if (tracer != nullptr) tracer->set_run(run_id);
    SampleResult s = sample(cfg, tracer);
    const std::string why = gate_failure(cfg, s, reference);
    if (!why.empty()) {
      ++run.failed;
      run.errors.push_back(why);
      return;
    }
    if (tracer != nullptr) add_span_layers(cfg, *tracer, run_id, s);
    if (!run.baseline) {
      run.baseline = s;
    } else if (!same_answer(*run.baseline, s)) {
      (tracer != nullptr ? run.trace_bit_identical : run.deterministic) =
          false;
    }
    if (timed) {
      run.samples.push_back(std::move(s));
      run.traced.push_back(tracer != nullptr);
    }
  } catch (const std::exception& e) {
    ++run.failed;
    run.errors.push_back(e.what());
  }
}

}  // namespace perfbench
