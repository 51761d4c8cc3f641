#ifndef M2TD_PERFBENCH_WORKLOADS_H_
#define M2TD_PERFBENCH_WORKLOADS_H_

// The benchmark's two closed-loop workloads. One caller runs ops back to
// back, the next starting only when the previous returns, like a
// researcher's script running experiments in sequence.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// Name, one-line rationale and seed use of a workload; the same text is
/// the "why" of its entry in BENCHMARK.json.
struct WorkloadInfo {
  const char* name;
  const char* why;
  const char* seed_use;
};

const std::vector<WorkloadInfo>& AllWorkloads();

/// Per-layer values of one op (or of the set-up), keyed by the per-layer
/// metric names of BENCHMARK.json.
using LayerValues = std::map<std::string, double>;

/// One workload. main.cc calls Setup once per set-up repetition, then
/// per op: Run (timed), Check and Layers (untimed).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the model, ground truth, inputs and reference values. Spans
  /// go to `log` when it is enabled.
  virtual m2td::Status Setup(SpanLog& log) = 0;
  /// The timed op: public library calls, each inside a span on `log`.
  virtual m2td::Status Run(SpanLog& log) = 0;
  /// Appends one message per failed correctness check of the last Run.
  /// The first checked op becomes the bit-identity reference.
  virtual void Check(std::vector<std::string>* failures) = 0;
  /// Per-layer values of the last Run that only the workload knows
  /// (results, stats, counts); `op` is the op id its spans carry.
  virtual void Layers(const SpanLog& log, int op, LayerValues* out) = 0;
  /// Accuracy of the last Run, for the printed summary.
  virtual double Quality() const = 0;
};

/// Creates the workload named `name` for `seed`; null for unknown names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench

#endif  // M2TD_PERFBENCH_WORKLOADS_H_
