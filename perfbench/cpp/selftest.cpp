// perfbench_selftest — the benchmark's own checks:
//   * the tracing decorators forward exactly (a traced solve reproduces the
//     untraced one bit for bit, assembled and matrix-free);
//   * self times sum to the parent's duration on a nested span tree;
//   * the correctness gate rejects a result perturbed by 1e-4 relative;
//   * a thrown solve is counted as failed (fail_rate), never dropped.
//
// Build and run through `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sampling.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

WorkloadConfig tiny(const std::string& jacobian, const std::string& smoother) {
  WorkloadConfig c;
  c.kind = "solve";
  c.dx_km = 300.0;
  c.layers = 3;
  c.jacobian = jacobian;
  c.smoother = smoother;
  return c;
}

void decorators_forward_exactly() {
  for (const auto& [jac, smoother] :
       {std::pair<std::string, std::string>{"assembled", "sgs"},
        {"matrix-free", "chebyshev"}}) {
    const WorkloadConfig cfg = tiny(jac, smoother);
    const SampleResult plain = run_sample(cfg, nullptr);
    Tracer tracer;
    const SampleResult traced = run_sample(cfg, &tracer);
    check(same_answer(plain, traced),
          "decorated " + jac + " solve equals the undecorated one bitwise");
    check(!tracer.spans().empty() &&
              layer_totals(tracer.spans())["linalg.precond_apply"].calls > 0,
          "decorated " + jac + " solve recorded preconditioner spans");
  }
}

void self_times_sum_to_parent() {
  // root [0,10] { a [1,4] { g [2,3] }, b [5,9] }
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 0},
      {"a", 1.0, 4.0, 0, 0},
      {"g", 2.0, 3.0, 1, 0},
      {"b", 5.0, 9.0, 0, 0},
  };
  const std::vector<double> self = self_times(spans);
  check(near(self[0], 3.0) && near(self[1], 2.0) && near(self[2], 1.0) &&
            near(self[3], 4.0),
        "self time = duration minus direct children");
  double sum = 0.0;
  for (const double s : self) sum += s;
  check(near(sum, spans[0].duration()),
        "self times of a tree sum to the root's duration");

  Tracer t;
  const int root = t.begin("root");
  const int child = t.begin("child");
  const int leaf = t.begin("leaf");
  t.end(leaf);
  t.end(child);
  const int sibling = t.begin("sibling");
  t.end(sibling);
  t.end(root);
  const auto& s = t.spans();
  check(s[static_cast<std::size_t>(child)].parent == root &&
            s[static_cast<std::size_t>(leaf)].parent == child &&
            s[static_cast<std::size_t>(sibling)].parent == root &&
            s[static_cast<std::size_t>(root)].parent == -1,
        "recorded spans link to their enclosing span");
  double recorded = 0.0;
  for (const double x : self_times(s)) recorded += x;
  check(std::abs(recorded - s[static_cast<std::size_t>(root)].duration()) <=
            1e-12,
        "recorded self times sum to the root's duration");
  check(t.well_nested(), "a properly nested trace is well nested");
  Tracer bad;
  const int outer = bad.begin("outer");
  (void)bad.begin("inner");
  check(!bad.end(outer) && !bad.well_nested(),
        "closing a span out of order marks the trace malformed");
  Tracer shared;
  const int solve = shared.begin("solve");
  int worker_span = 0;
  std::thread([&shared, &worker_span] {
    worker_span = shared.begin("worker");
  }).join();
  check(worker_span == -1 && shared.spans().size() == 1 &&
            shared.end(solve) && !shared.well_nested(),
        "a span opened off the solve's thread marks the trace malformed");
}

void gate_rejects_perturbation() {
  WorkloadConfig solve;
  SampleResult s;
  const double ref = 251.75255;
  s.mean_velocity = ref * (1.0 + 1e-4);
  check(!gate_failure(solve, s, ref).empty(),
        "gate rejects a 1e-4 relative perturbation");
  s.mean_velocity = ref * (1.0 - 1e-4);
  check(!gate_failure(solve, s, ref).empty(),
        "gate rejects a -1e-4 relative perturbation");
  s.mean_velocity = ref * (1.0 + 1e-6);
  check(gate_failure(solve, s, ref).empty(),
        "gate accepts a 1e-6 relative perturbation");
  s.mean_velocity = std::nan("");
  check(!gate_failure(solve, s, ref).empty(), "gate rejects NaN");

  WorkloadConfig forecast;
  forecast.kind = "forecast";
  s.mean_velocity = ref;
  s.completed = false;
  check(!gate_failure(forecast, s, ref).empty(),
        "gate rejects a forecast that did not complete");
  s.completed = true;
  s.max_mass_residual = 1e-11;
  check(!gate_failure(forecast, s, ref).empty(),
        "gate rejects a forecast whose mass ledger misses 1e-12");
  s.max_mass_residual = 1e-14;
  check(gate_failure(forecast, s, ref).empty(),
        "gate accepts a closed forecast ledger");
}

void fail_rate_counts_thrown_solve() {
  const WorkloadConfig cfg;
  const double ref = 100.0;
  const SampleFn throws = [](const WorkloadConfig&, Tracer*) -> SampleResult {
    throw std::runtime_error("injected solver failure");
  };
  const SampleFn good = [](const WorkloadConfig&, Tracer*) {
    SampleResult s;
    s.mean_velocity = 100.0;
    s.history = {1.0, 0.5};
    return s;
  };
  const SampleFn off = [](const WorkloadConfig&, Tracer*) {
    SampleResult s;
    s.mean_velocity = 100.1;
    return s;
  };
  Run run;
  attempt(cfg, ref, nullptr, 0, run, true, throws);
  check(run.attempted == 1 && run.failed == 1 && run.fail_rate() == 1.0,
        "a thrown solve counts as attempted and failed");
  attempt(cfg, ref, nullptr, 1, run, true, good);
  attempt(cfg, ref, nullptr, 2, run, true, off);
  attempt(cfg, ref, nullptr, 3, run, true, good);
  check(run.attempted == 4 && run.failed == 2 && run.fail_rate() == 0.5 &&
            run.samples.size() == 2,
        "failures are counted, never retried or dropped (2 of 4)");
  check(run.errors.size() == 2 &&
            run.errors[0].find("injected") != std::string::npos,
        "the thrown error is recorded");
}

}  // namespace

int main() {
  try {
    self_times_sum_to_parent();
    gate_rejects_perturbation();
    fail_rate_counts_thrown_solve();
    decorators_forward_exactly();
  } catch (const std::exception& e) {
    std::printf("FAIL  unexpected exception: %s\n", e.what());
    ++g_failures;
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
