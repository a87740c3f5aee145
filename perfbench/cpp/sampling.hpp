#pragma once
// The checked sample loop shared by the runner and the self-tests: every
// attempted sample is gated, a throw or a missed gate counts as a failure
// (never dropped, never retried), and every successful sample must
// reproduce the first one bit for bit — across repeats (determinism) and
// across tracing on/off (the decorators only forward).

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Run {
  std::vector<SampleResult> samples;  ///< timed samples that passed
  std::vector<bool> traced;           ///< parallel to samples
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  bool deterministic = true;        ///< untraced samples agree bitwise
  bool trace_bit_identical = true;  ///< traced samples agree with untraced
  std::optional<SampleResult> baseline;  ///< first sample that passed

  [[nodiscard]] double fail_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

using SampleFn = std::function<SampleResult(const WorkloadConfig&, Tracer*)>;

/// Runs one sample (`tracer` null = untraced) under span run id `run_id`,
/// gates it against `reference`, and records it in `run` (kept among the
/// timed samples when `timed`).
void attempt(const WorkloadConfig& cfg, double reference, Tracer* tracer,
             int run_id, Run& run, bool timed,
             const SampleFn& sample = run_sample);

/// Bitwise equality of the Newton history, mean velocity and solution.
[[nodiscard]] bool same_answer(const SampleResult& a, const SampleResult& b);

/// Adds the span-derived per-layer metrics of run `run_id` to s.layers.
void add_span_layers(const WorkloadConfig& cfg, const Tracer& tracer,
                     int run_id, SampleResult& s);

}  // namespace perfbench
