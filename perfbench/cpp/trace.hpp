#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Every decorated call into a solver layer becomes one span (name, start,
// end, parent span, run id).  Spans nest through an explicit stack: the
// decorators must only be entered from the thread that drives the Newton
// solve, so the innermost open span is the parent of the next one.  A call
// from any other thread is not recorded and marks the trace malformed.  Spans
// are kept in memory and written out once, as Chrome trace-event JSON
// (viewable in Perfetto or chrome://tracing), when the benchmark ends.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer's origin
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int run = 0;      ///< which sample of the benchmark run it belongs to

  [[nodiscard]] double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one and returns its index
  /// (-1, recording nothing, when called off the owning thread).
  int begin(const std::string& name);
  /// Closes span `id`.  Only the innermost open span may close, and only
  /// on the owning thread; otherwise every span stays as it is, end returns
  /// false and marks the trace malformed (a destructor calls this, so it
  /// must not throw).
  bool end(int id) noexcept;

  void set_run(int run) { run_ = run; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// False once a span was closed out of order or a decorator ran off the
  /// owning thread: parent links and self times can no longer be trusted.
  [[nodiscard]] bool well_nested() const { return well_nested_; }

 private:
  /// True on the thread that constructed the tracer (the one that runs the
  /// solve); anywhere else it marks the trace malformed.
  bool on_owner_thread() noexcept;

  std::chrono::steady_clock::time_point origin_;
  std::thread::id owner_ = std::this_thread::get_id();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
  std::atomic<bool> well_nested_{true};
};

/// Opens a span on construction and closes it on destruction (exception
/// paths included).  A null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one span never overlap, they run on one thread).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

struct LayerTotals {
  std::size_t calls = 0;
  double total_s = 0.0;  ///< summed span durations
  double self_s = 0.0;   ///< summed self times
};

/// Per-name totals over the spans of one run (`run` < 0 takes every run).
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans, int run = -1);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps);
/// span index and parent index ride in each event's args.
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
