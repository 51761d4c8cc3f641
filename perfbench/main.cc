// End-to-end benchmark program. Runs one closed-loop workload for a fixed
// time and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   m2td_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace_out <file>]
//
// --trace 0 reports the end-to-end metrics with all tracing off; it runs
// at least 100 ops, going on past --seconds if needed. --trace 1
// first runs untraced ops for a share of the time (the overhead baseline),
// then traced ops, and reports the per-layer metrics: medians over the
// traced ops of the benchmark's own spans, the library's obs span self
// times and counters, and per-workload results. --trace_out writes the
// benchmark-side spans (name, start, end, parent, op id) at exit.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "linalg/eigen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "trace.h"
#include "util/cpu_features.h"
#include "workloads.h"

namespace perfbench {
namespace {

// An untraced run repeats set-up at least kMinSetups times and until
// kSetupBudgetSeconds are spent (at most kMaxSetups); setup_s is the
// median, so short set-ups get more samples.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupBudgetSeconds = 2.5;
// An untraced run goes on past --seconds until it has kMinOps ops, so
// latency_p90_s has at least ten samples beyond it.
constexpr int kMinOps = 100;
constexpr int kMinSamplesBeyondP90 = 10;
// Share of a traced run spent on untraced ops (the overhead baseline).
constexpr double kUntracedShare = 0.3;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric BENCHMARK.json lists; a workload that does not
// exercise a layer reports 0 for it.
const std::vector<MetricDef> kLayerMetrics = {
    {"ensemble.build_full_tensor_s", "s"},
    {"ensemble.trajectories", "count"},
    {"ensemble.trajectories_per_s", "1/s"},
    {"ensemble.cpu_per_wall", "ratio"},
    {"core.build_sub_ensembles_s", "s"},
    {"core.m2td_decompose_s", "s"},
    {"core.sub_decompose_s", "s"},
    {"core.stitch_s", "s"},
    {"core.core_recovery_s", "s"},
    {"core.join_nnz", "count"},
    {"core.join_bytes_computed", "B"},
    {"span.je_stitch_self_s", "s"},
    {"span.je_stitch_join_s", "s"},
    {"span.csf_build_s", "s"},
    {"span.sparse_mode_product_s", "s"},
    {"span.mode_product_s", "s"},
    {"span.expand_core_s", "s"},
    {"span.core_from_sparse_s", "s"},
    {"span.mode_gram_s", "s"},
    {"span.symmetric_eigen_s", "s"},
    {"tensor.csf.builds", "count"},
    {"tensor.csf.reuses", "count"},
    {"tensor.reconstruct_s", "s"},
    {"tensor.score_s", "s"},
    {"parallel.utilization", "ratio"},
    {"parallel.regions", "count"},
    {"quality.accuracy", "ratio"},
    {"quality.accuracy_over_random", "ratio"},
    {"bench.span_coverage_min", "ratio"},
    {"bench.untraced_latency_p50_s", "s"},
    {"bench.traced_latency_p50_s", "s"},
    {"bench.tracing_overhead_s", "s"},
    {"bench.traced_ops", "count"},
};

// Library obs spans whose self time is reported as span.<name>_s (the
// stitch's own time, i.e. its sort/coalesce, is span.je_stitch_self_s).
const std::vector<std::pair<const char*, const char*>> kSelfSpans = {
    {"je_stitch", "span.je_stitch_self_s"},
    {"je_stitch_join", "span.je_stitch_join_s"},
    {"csf_build", "span.csf_build_s"},
    {"sparse_mode_product", "span.sparse_mode_product_s"},
    {"mode_product", "span.mode_product_s"},
    {"expand_core", "span.expand_core_s"},
    {"core_from_sparse", "span.core_from_sparse_s"},
    {"mode_gram", "span.mode_gram_s"},
    {"symmetric_eigen", "span.symmetric_eigen_s"},
};

// Library counters reported per op under their own names.
const std::vector<const char*> kCounters = {
    "tensor.csf.builds",
    "tensor.csf.reuses",
    "parallel.regions",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--trace_out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Linear-interpolated quantile of `samples` (q in [0, 1]).
double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ProvenanceJson(const Args& args) {
  std::ostringstream os;
  os << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"pool_size\":" << m2td::parallel::GlobalThreads()
     << ",\"simd_level\":\""
     << m2td::util::SimdIsaName(m2td::util::ResolvedSimdIsa())
     << "\",\"fast_kernels\":"
     << (m2td::util::FastKernelsEnabled() ? "true" : "false")
     << ",\"eigen_method\":\""
     << m2td::linalg::EigenMethodName(m2td::linalg::DefaultEigenMethod())
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"compiler\":\"" << __VERSION__ << "\"}";
  return os.str();
}

void SetObs(bool on) {
  m2td::obs::SetTracingEnabled(on);
  m2td::obs::SetMetricsEnabled(on);
}

// Runs one op: timed Run, then untimed Check. With `observe`
// the library's spans and counters are reset and recorded during Run only.
// Returns the op's wall seconds; bumps `failed` when Run or a check fails.
double RunOp(Workload& workload, SpanLog& log, int op, bool observe,
             int* failed, std::vector<std::string>* messages) {
  if (observe) {
    m2td::obs::Tracer::Get().Reset();
    m2td::obs::ResetMetrics();
    SetObs(true);
  }
  log.set_op(op);
  const int root = log.Open("op");
  const double t0 = NowSeconds();
  const m2td::Status status = workload.Run(log);
  const double wall = NowSeconds() - t0;
  log.Close(root);
  if (observe) SetObs(false);
  std::vector<std::string> failures;
  if (!status.ok()) {
    failures.push_back(status.ToString());
  } else {
    workload.Check(&failures);
  }
  if (!failures.empty()) {
    ++*failed;
    if (messages->size() < 8) {
      messages->push_back("op " + std::to_string(op) + ": " + failures[0]);
    }
  }
  return wall;
}

// Builds a workload and runs its warm-up op (the bit-identity reference);
// both count as set-up.
m2td::Status SetUp(const Args& args, SpanLog& log,
                   std::unique_ptr<Workload>* out) {
  auto workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    return m2td::Status::InvalidArgument("unknown workload '" + args.workload +
                                         "'");
  }
  log.set_op(-1);
  M2TD_RETURN_IF_ERROR(workload->Setup(log));
  int failed = 0;
  std::vector<std::string> messages;
  RunOp(*workload, log, -1, /*observe=*/false, &failed, &messages);
  if (failed != 0) {
    return m2td::Status::Internal("warm-up op failed: " + messages[0]);
  }
  *out = std::move(workload);
  return m2td::Status::OK();
}

// Per-layer values of one traced op, from the library's obs state and the
// workload.
LayerValues HarvestOp(Workload& workload, const SpanLog& log, int op,
                      double wall) {
  LayerValues values;
  const auto self = SelfSeconds(m2td::obs::Tracer::Get().Spans());
  for (const auto& [span, metric] : kSelfSpans) {
    const auto it = self.find(span);
    values[metric] = it == self.end() ? 0.0 : it->second;
  }
  for (const char* counter : kCounters) {
    values[counter] =
        static_cast<double>(m2td::obs::GetCounter(counter).value());
  }
  const double busy_s =
      1e-6 * static_cast<double>(
                 m2td::obs::GetCounter("parallel.busy_us").value());
  values["parallel.utilization"] =
      busy_s / (wall * m2td::parallel::GlobalThreads());
  workload.Layers(log, op, &values);
  return values;
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.name, v,
                  metrics[i].first.unit);
    out += buf;
  }
  out += "}}";
  std::cout << out << std::endl;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: m2td_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace_out <file>]\n";
    return 2;
  }
  m2td::parallel::SetGlobalThreads(m2td::parallel::HardwareThreads());
  SetObs(false);
  const std::string provenance = ProvenanceJson(args);
  std::cout << "provenance: " << provenance << "\n";
  for (const WorkloadInfo& info : AllWorkloads()) {
    if (args.workload == info.name) {
      std::cout << "workload: " << info.name << " -- " << info.why
                << " (seed: " << info.seed_use << ")\n";
    }
  }

  SpanLog log;
  log.set_enabled(args.trace);
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  // A traced run sets up once; it does not report setup_s.
  const int max_setups = args.trace ? 1 : kMaxSetups;
  for (int i = 0; i < max_setups; ++i) {
    if (i >= kMinSetups && setup_total >= kSetupBudgetSeconds) break;
    workload.reset();
    const double t0 = NowSeconds();
    const m2td::Status status = SetUp(args, log, &workload);
    if (!status.ok()) {
      std::cerr << "set-up failed: " << status << "\n";
      return 1;
    }
    setup_seconds.push_back(NowSeconds() - t0);
    setup_total += setup_seconds.back();
  }

  int failed = 0;
  int op = 0;
  std::vector<std::string> messages;
  std::vector<double> latencies;
  const double loop_start = NowSeconds();
  const double untraced_until =
      loop_start + (args.trace ? kUntracedShare : 1.0) * args.seconds;
  const int min_ops = args.trace ? 1 : kMinOps;
  log.set_enabled(false);
  while (op < min_ops || NowSeconds() < untraced_until) {
    latencies.push_back(
        RunOp(*workload, log, op++, /*observe=*/false, &failed, &messages));
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!args.trace) {
    // Throughput counts the ops that passed their checks over the closed
    // loop's wall time, which includes the untimed per-op checks that
    // latency leaves out.
    const double loop_s = NowSeconds() - loop_start;
    const double p90 = Quantile(latencies, 0.9);
    const auto beyond_p90 = std::count_if(
        latencies.begin(), latencies.end(), [&](double l) { return l > p90; });
    metrics = {
        {{"latency_p50_s", "s"}, Quantile(latencies, 0.5)},
        {{"latency_p90_s", "s"}, p90},
        {{"throughput_ops_per_s", "1/s"}, (op - failed) / loop_s},
        {{"setup_s", "s"}, Quantile(setup_seconds, 0.5)},
        {{"peak_rss_mb", "MB"}, PeakRssMb()},
    };
    std::cout << "summary: ops=" << latencies.size() << " loop_s=" << loop_s
              << " samples_beyond_p90=" << beyond_p90
              << " quality=" << workload->Quality() << "\n";
    if (beyond_p90 < kMinSamplesBeyondP90) {
      std::cerr << "only " << beyond_p90 << " samples beyond p90, fewer than "
                << kMinSamplesBeyondP90 << "\n";
      return 1;
    }
  } else {
    // Traced ops: per-op layer values, then medians.
    log.set_enabled(true);
    std::vector<double> traced;
    std::map<std::string, std::vector<double>> samples;
    double min_coverage = 1.0;
    const double deadline = loop_start + args.seconds;
    while (traced.empty() || NowSeconds() < deadline) {
      const int this_op = op++;
      const std::size_t root = log.spans().size();
      const double wall =
          RunOp(*workload, log, this_op, /*observe=*/true, &failed, &messages);
      traced.push_back(wall);
      min_coverage =
          std::min(min_coverage, log.ChildCoverage(static_cast<int>(root)));
      for (const auto& [name, value] :
           HarvestOp(*workload, log, this_op, wall)) {
        samples[name].push_back(value);
      }
    }
    LayerValues layer;
    for (const auto& [name, values] : samples) {
      layer[name] = Quantile(values, 0.5);
    }
    const double untraced_p50 = Quantile(latencies, 0.5);
    const double traced_p50 = Quantile(traced, 0.5);
    layer["bench.span_coverage_min"] = min_coverage;
    layer["bench.untraced_latency_p50_s"] = untraced_p50;
    layer["bench.traced_latency_p50_s"] = traced_p50;
    layer["bench.tracing_overhead_s"] = traced_p50 - untraced_p50;
    layer["bench.traced_ops"] = static_cast<double>(traced.size());
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = layer.find(def.name);
      metrics.push_back({def, it == layer.end() ? 0.0 : it->second});
    }
    std::cout << "summary: untraced_ops=" << latencies.size()
              << " traced_ops=" << traced.size()
              << " quality=" << workload->Quality() << "\n";
  }
  for (const std::string& message : messages) {
    std::cerr << "failed " << message << "\n";
  }
  if (!args.trace_out.empty() && !log.WriteJson(args.trace_out, provenance)) {
    std::cerr << "cannot write " << args.trace_out << "\n";
    return 1;
  }
  PrintResult(failed == 0, op, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
