#ifndef M2TD_PERFBENCH_TRACE_H_
#define M2TD_PERFBENCH_TRACE_H_

// Benchmark-side tracing: spans the benchmark itself records around each
// public library call (name, start, end, parent, op id), kept in memory
// and written once at exit, plus helpers that turn the library's own obs
// spans into per-name self times.

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Seconds on the benchmark's monotonic clock (steady_clock).
double NowSeconds();

/// One benchmark-side span. `parent` indexes SpanLog::spans() (-1 for a
/// root); `op` is the op id (-1 for set-up).
struct BenchSpan {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int op = -1;
};

/// In-memory span recorder for the single benchmark thread. Disabled by
/// default: Open/Close then only cost a branch.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_op(int op) { op_ = op; }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (-1 when disabled).
  int Open(const std::string& name);
  void Close(int index);

  const std::vector<BenchSpan>& spans() const { return spans_; }

  /// Sum of durations of spans named `name` belonging to op `op`.
  double Total(int op, const std::string& name) const;
  /// Fraction of root span `root`'s duration covered by its direct
  /// children.
  double ChildCoverage(int root) const;

  /// Writes {"provenance": ..., "spans": [...]} to `path`.
  bool WriteJson(const std::string& path,
                 const std::string& provenance_json) const;

 private:
  bool enabled_ = false;
  int op_ = -1;
  std::vector<int> open_;
  std::vector<BenchSpan> spans_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), index_(log.Open(name)) {}
  ~ScopedSpan() { log_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Per-name self time (seconds) of the library's obs spans: each span's
/// duration minus the spans nested directly inside it on the same thread,
/// summed over every thread.
std::map<std::string, double> SelfSeconds(
    const std::vector<m2td::obs::SpanRecord>& spans);

}  // namespace perfbench

#endif  // M2TD_PERFBENCH_TRACE_H_
