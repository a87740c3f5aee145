// perfbench_runner — executes one benchmark workload configuration and
// writes its samples as JSON.  run.py generates the configuration from the
// workload table and the seed, and aggregates the samples.
//
//   perfbench_runner --mode reference --out FILE <config>
//       one sample of reference_config(config); writes its mean velocity
//   perfbench_runner --mode run --reference V --seconds S --out FILE <config>
//       a warm-up sample (its peak RSS is recorded), kSetupReps more problem
//       set-ups, then untraced samples for S seconds
//   perfbench_runner --mode trace --reference V --seconds S --out FILE
//                    --trace-out TRACE.json <config>
//       a warm-up sample, then (untraced, traced) pairs for S seconds; the
//       traced samples give the per-layer split, the pairs the tracing
//       overhead, and every sample must reproduce the warm-up bit for bit
//
// <config>: --kind solve|dist|forecast --dx-km F --layers N --jacobian M
//           --scatter M --simd W --precond P --smoother S --ranks N
//           --years F --lobe-amplitude F --bed-amplitude F --beta-stream F
//
// Every sample is checked (workloads.hpp gate_failure); a sample that
// misses the gate or throws counts as failed and is never retried.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "portability/thread_pool.hpp"
#include "sampling.hpp"
#include "trace.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Run;
using perfbench::SampleResult;
using perfbench::WorkloadConfig;

struct Options {
  std::string mode;
  std::string out;
  std::string trace_out;
  double reference = 0.0;
  double seconds = 10.0;
  WorkloadConfig cfg;
};

// Extra problem set-ups per run: set-up takes milliseconds, so the median
// of setup_s needs more samples than the solves give.
constexpr int kSetupReps = 25;

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    MALI_CHECK_MSG(key.rfind("--", 0) == 0 && i + 1 < argc,
                   "perfbench_runner: expected --key value, got " + key);
    kv[key.substr(2)] = argv[++i];
  }
  const auto take = [&kv](const std::string& k) -> std::optional<std::string> {
    const auto it = kv.find(k);
    if (it == kv.end()) return std::nullopt;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  const auto num = [&take](const std::string& k, double dflt) {
    const auto v = take(k);
    return v ? std::strtod(v->c_str(), nullptr) : dflt;
  };
  Options o;
  o.mode = take("mode").value_or("");
  o.out = take("out").value_or("");
  o.trace_out = take("trace-out").value_or("");
  o.reference = num("reference", 0.0);
  o.seconds = num("seconds", 10.0);
  WorkloadConfig& c = o.cfg;
  c.kind = take("kind").value_or(c.kind);
  c.dx_km = num("dx-km", c.dx_km);
  c.layers = static_cast<int>(num("layers", c.layers));
  c.jacobian = take("jacobian").value_or(c.jacobian);
  c.scatter = take("scatter").value_or(c.scatter);
  c.simd = take("simd").value_or(c.simd);
  c.precond = take("precond").value_or(c.precond);
  c.smoother = take("smoother").value_or(c.smoother);
  c.ranks = static_cast<int>(num("ranks", c.ranks));
  c.years = num("years", c.years);
  c.geometry.lobe_amplitude =
      num("lobe-amplitude", c.geometry.lobe_amplitude);
  c.geometry.bed_amplitude_m = num("bed-amplitude", c.geometry.bed_amplitude_m);
  c.geometry.beta_stream = num("beta-stream", c.geometry.beta_stream);
  MALI_CHECK_MSG(kv.empty(),
                 "perfbench_runner: unknown option --" + kv.begin()->first);
  MALI_CHECK_MSG(o.mode == "reference" || o.mode == "run" || o.mode == "trace",
                 "perfbench_runner: --mode must be reference|run|trace");
  MALI_CHECK_MSG(!o.out.empty(), "perfbench_runner: --out is required");
  MALI_CHECK_MSG(o.mode != "trace" || !o.trace_out.empty(),
                 "perfbench_runner: --mode trace requires --trace-out");
  return o;
}

void write_value(mali::util::JsonWriter& w, double v) {
  if (std::isfinite(v)) {
    w.value(v);
  } else {
    w.value_fragment("null");
  }
}

/// Spans closed in order, all on the solve's thread, and no span whose
/// children outlast it (a negative self time).
bool trace_consistent(const perfbench::Tracer& tracer) {
  if (!tracer.well_nested()) return false;
  for (const double self : perfbench::self_times(tracer.spans())) {
    if (self < 0.0) return false;
  }
  return true;
}

/// Peak resident set of this process so far, in KiB.
long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void write_run(const Options& o, const Run& run, long warmup_peak_rss_kib,
               const std::vector<double>& setup_s, bool well_nested,
               std::ostream& os) {
  mali::util::JsonWriter w;
  w.begin_object();
  w.key("mode").value(o.mode);
  w.key("threads").value(mali::pk::ThreadPool::instance().size());
  w.key("llc_bytes").value(static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  w.key("warmup_peak_rss_kib").value(static_cast<double>(warmup_peak_rss_kib));
  w.key("attempted").value(run.attempted);
  w.key("failed").value(run.failed);
  w.key("deterministic").value(run.deterministic);
  w.key("trace_bit_identical").value(run.trace_bit_identical);
  w.key("trace_well_nested").value(well_nested);
  w.key("errors").begin_array();
  for (const std::string& e : run.errors) w.value(e);
  w.end_array();
  if (run.baseline) {
    const SampleResult& b = *run.baseline;
    w.key("record").begin_object();
    w.key("cells").value(b.cells);
    w.key("dofs").value(b.dofs);
    w.key("nnz").value(b.nnz);
    w.key("operator_apply_bytes").value(b.operator_apply_bytes);
    w.key("vcycle_bytes").value(b.vcycle_bytes);
    w.key("mean_velocity").value(b.mean_velocity);
    w.end_object();
  }
  w.key("setup_samples").begin_array();
  for (const double t : setup_s) w.value(t);
  w.end_array();
  w.key("samples").begin_array();
  for (std::size_t i = 0; i < run.samples.size(); ++i) {
    const SampleResult& s = run.samples[i];
    w.begin_object();
    w.key("traced").value(static_cast<bool>(run.traced[i]));
    w.key("setup_s").value(s.setup_s);
    w.key("solve_s").value(s.solve_s);
    w.key("cpu_s").value(s.cpu_s);
    w.key("mean_velocity");
    write_value(w, s.mean_velocity);
    w.key("layers").begin_object();
    for (const auto& [name, v] : s.layers) {
      w.key(name);
      write_value(w, v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << w.str() << "\n";
}

int main_impl(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::ofstream out(o.out);
  MALI_CHECK_MSG(out.good(), "perfbench_runner: cannot write " + o.out);

  if (o.mode == "reference") {
    const SampleResult s =
        perfbench::run_sample(perfbench::reference_config(o.cfg), nullptr);
    mali::util::JsonWriter w;
    w.begin_object();
    w.key("mean_velocity");
    write_value(w, s.mean_velocity);
    w.end_object();
    out << w.str() << "\n";
    return out.good() ? 0 : 1;
  }

  const bool tracing = o.mode == "trace";
  perfbench::Tracer tracer;
  Run run;
  // Warm-up: checked and counted, not timed.
  perfbench::attempt(o.cfg, o.reference, nullptr, 0, run, /*timed=*/false);
  // Peak memory of one solve, as a `mali solve` process sees it.  Later
  // samples only add allocator fragmentation, which varies from run to run
  // with the thread interleaving.
  const long warmup_peak = peak_rss_kib();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_s.push_back(perfbench::time_setup(o.cfg));
  }
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const auto t0 = Clock::now();
  int run_id = 1;
  double last_s = 0.0;
  // Another sample starts only when the last one's wall time says it will
  // end within S seconds, so a run lasts about S seconds even when host
  // contention makes each sample several times slower.
  do {
    const auto s0 = Clock::now();
    perfbench::attempt(o.cfg, o.reference, nullptr, run_id++, run, true);
    if (tracing) {
      perfbench::attempt(o.cfg, o.reference, &tracer, run_id++, run, true);
    }
    last_s = since(s0);
  } while (since(t0) + last_s <= o.seconds);

  write_run(o, run, warmup_peak, setup_s, trace_consistent(tracer), out);
  if (tracing) {
    std::ofstream tf(o.trace_out);
    tf << perfbench::chrome_trace_json(tracer.spans()) << "\n";
    MALI_CHECK_MSG(tf.good(), "perfbench_runner: cannot write " + o.trace_out);
  }
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
