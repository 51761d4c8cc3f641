// Tests for the observability subsystem (src/obs/): span tracer, Chrome
// trace export, the metrics registry, histogram percentiles, the alloc
// tally, the resource sampler, and the run-report builder.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "gtest/gtest.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "util/logging.h"

namespace m2td::obs {
namespace {

/// Shared fixture: every test starts with tracing+metrics on and empty
/// state, and leaves both off so ordering does not matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Reset();
    ResetMetrics();
    SetTracingEnabled(true);
    SetMetricsEnabled(true);
  }
  void TearDown() override {
    SetTracingEnabled(false);
    SetMetricsEnabled(false);
    Tracer::Get().Reset();
    ResetMetrics();
  }
};

TEST_F(ObsTest, SpanRecordsNameAndDuration) {
  {
    ObsSpan span("unit_work");
    span.Annotate("nnz", std::uint64_t{42});
  }
  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit_work");
  EXPECT_GE(spans[0].duration_us, 0.0);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].key, "nnz");
  EXPECT_EQ(spans[0].args[0].value, "42");
  EXPECT_FALSE(spans[0].args[0].quoted);
}

TEST_F(ObsTest, EndIsIdempotentAndReturnsElapsed) {
  ObsSpan span("once");
  const double first = span.End();
  const double second = span.End();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(first, second);
  EXPECT_EQ(Tracer::Get().NumSpans(), 1u);
}

TEST_F(ObsTest, NestedSpansTrackDepth) {
  {
    ObsSpan outer("outer");
    {
      ObsSpan inner("inner");
      { M2TD_TRACE_SCOPE("leaf"); }
    }
  }
  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans complete innermost-first.
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].depth, 0u);
  // Containment: the outer span covers the inner ones.
  EXPECT_LE(spans[2].start_us, spans[0].start_us);
  EXPECT_GE(spans[2].start_us + spans[2].duration_us,
            spans[0].start_us + spans[0].duration_us);
}

TEST_F(ObsTest, SpansNestIndependentlyAcrossThreads) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      ObsSpan outer("thread_outer");
      ObsSpan inner("thread_inner");
      inner.End();
      outer.End();
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  for (const SpanRecord& span : spans) {
    // Depth is per-thread: each thread's outer span sits at depth 0 even
    // though the threads overlap in time.
    if (span.name == "thread_outer") {
      EXPECT_EQ(span.depth, 0u);
    } else {
      EXPECT_EQ(span.name, "thread_inner");
      EXPECT_EQ(span.depth, 1u);
    }
  }
  // The threads must have distinct tracer thread ids.
  std::vector<std::uint32_t> tids;
  for (const SpanRecord& span : spans) {
    if (span.name == "thread_outer") tids.push_back(span.thread_id);
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  SetTracingEnabled(false);
  {
    ObsSpan span("invisible");
    span.Annotate("key", std::int64_t{1});
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.End(), 0.0);
  }
  EXPECT_EQ(Tracer::Get().NumSpans(), 0u);
}

TEST_F(ObsTest, AlwaysTimeSpanMeasuresWhileDisabled) {
  SetTracingEnabled(false);
  ObsSpan span("timed_anyway", ObsSpan::kAlwaysTime);
  EXPECT_TRUE(span.active());
  EXPECT_GE(span.End(), 0.0);
  // Still not recorded into the tracer.
  EXPECT_EQ(Tracer::Get().NumSpans(), 0u);
}

TEST_F(ObsTest, SpanTotalsAggregateByName) {
  for (int i = 0; i < 3; ++i) {
    ObsSpan span("repeated");
    span.End();
  }
  {
    ObsSpan other("other");
  }
  const std::vector<SpanTotal> totals = Tracer::Get().AggregateTotals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "repeated");  // first seen first
  EXPECT_EQ(totals[0].count, 3u);
  EXPECT_EQ(totals[1].name, "other");
  EXPECT_EQ(totals[1].count, 1u);
  EXPECT_GE(Tracer::Get().SpanTotalSeconds("repeated"), 0.0);
  EXPECT_EQ(Tracer::Get().SpanTotalSeconds("missing"), 0.0);
}

// Minimal structural JSON check: brace/bracket balance outside strings,
// with escape handling. Enough to catch malformed export without a JSON
// dependency.
bool JsonIsBalanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return stack.empty() && !in_string;
}

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(ObsTest, ExperimentRunRecordsScoreSpan) {
  tensor::DenseTensor truth({3, 4, 2});
  for (std::uint64_t i = 0; i < truth.NumElements(); ++i) {
    truth.flat(i) = 1.0 + static_cast<double>(i % 5);
  }
  auto outcome = core::RunUnionBaseline(
      tensor::SparseTensor::FromDense(truth), truth, 2, "union");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  int scores = 0;
  for (const SpanRecord& span : Tracer::Get().Spans()) {
    if (span.name == "score") ++scores;
  }
  EXPECT_EQ(scores, 1);
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedAndDeterministic) {
  {
    ObsSpan outer("export_outer");
    outer.Annotate("label", "quoted \"value\"\n");
    ObsSpan inner("export_inner");
    inner.Annotate("nnz", std::uint64_t{7});
    inner.End();
    outer.End();
  }
  Tracer::Get().RecordInstant("marker");

  std::ostringstream first, second;
  Tracer::Get().WriteChromeTrace(first);
  Tracer::Get().WriteChromeTrace(second);
  const std::string json = first.str();

  // Round trip: exporting twice from the same state is byte-identical.
  EXPECT_EQ(json, second.str());

  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One complete event per span, one instant event.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("\"export_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"export_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"nnz\":7"), std::string::npos);
  // The annotation with quotes/newline must be escaped.
  EXPECT_NE(json.find("quoted \\\"value\\\"\\n"), std::string::npos);
}

TEST_F(ObsTest, JsonEscapeHandlesControlCharacters) {
  std::string out;
  internal::JsonEscape(std::string_view("a\"b\\c\n\t\x01", 8), &out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST_F(ObsTest, WarningLogsBecomeTraceInstants) {
  M2TD_LOG_WARNING() << "trace-mirrored warning";
  const std::vector<InstantRecord> instants = Tracer::Get().Instants();
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_NE(instants[0].name.find("trace-mirrored warning"),
            std::string::npos);
}

TEST_F(ObsTest, TextSummaryListsSpans) {
  {
    ObsSpan outer("summary_outer");
    ObsSpan inner("summary_inner");
  }
  std::ostringstream os;
  Tracer::Get().WriteTextSummary(os);
  const std::string summary = os.str();
  EXPECT_NE(summary.find("summary_outer"), std::string::npos);
  EXPECT_NE(summary.find("summary_inner"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics.

TEST_F(ObsTest, CounterSumsExactlyUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  Counter& counter = GetCounter("test.contended");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(ObsTest, DisabledMetricsAreNoOps) {
  SetMetricsEnabled(false);
  Counter& counter = GetCounter("test.disabled_counter");
  Gauge& gauge = GetGauge("test.disabled_gauge");
  Histogram& hist = GetHistogram("test.disabled_hist");
  counter.Add(5);
  gauge.Set(3.5);
  hist.Observe(8);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(hist.Count(), 0u);
}

TEST_F(ObsTest, GetCounterReturnsSameInstance) {
  Counter& a = GetCounter("test.same");
  Counter& b = GetCounter("test.same");
  EXPECT_EQ(&a, &b);
  a.Add(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // Index: 0 -> 0; 1 -> 1; 2,3 -> 2; 4..7 -> 3; 2^(b-1) opens bucket b.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex((std::uint64_t{1} << 63) - 1), 63);
  EXPECT_EQ(Histogram::BucketIndex(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}), 64);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketLowerBound(64), std::uint64_t{1} << 63);

  // Every value lands in the bucket whose range contains it.
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    const std::uint64_t lo = Histogram::BucketLowerBound(b);
    EXPECT_EQ(Histogram::BucketIndex(lo), b);
    EXPECT_EQ(Histogram::BucketIndex(lo + (lo - 1)), b);  // top of range
  }
}

TEST_F(ObsTest, HistogramObserveCountsAndSums) {
  Histogram& hist = GetHistogram("test.hist");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull}) hist.Observe(v);
  EXPECT_EQ(hist.Count(), 5u);
  EXPECT_EQ(hist.Sum(), 1030u);
  EXPECT_EQ(hist.BucketCount(0), 1u);   // 0
  EXPECT_EQ(hist.BucketCount(1), 1u);   // 1
  EXPECT_EQ(hist.BucketCount(2), 2u);   // 2, 3
  EXPECT_EQ(hist.BucketCount(11), 1u);  // 1024 = 2^10
}

TEST_F(ObsTest, MetricsJsonIsWellFormed) {
  GetCounter("test.json_counter").Add(3);
  GetGauge("test.json_gauge").Set(1.5);
  GetHistogram("test.json_hist").Observe(10);
  std::ostringstream os;
  WriteMetricsJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
}

TEST_F(ObsTest, ResetMetricsZeroesEverything) {
  GetCounter("test.reset_counter").Add(9);
  GetHistogram("test.reset_hist").Observe(9);
  ResetMetrics();
  EXPECT_EQ(GetCounter("test.reset_counter").value(), 0u);
  EXPECT_EQ(GetHistogram("test.reset_hist").Count(), 0u);
}

// ---------------------------------------------------------------------------
// Histogram percentiles.

TEST_F(ObsTest, PercentileOfEmptyHistogramIsZero) {
  Histogram& hist = GetHistogram("test.pct_empty");
  EXPECT_EQ(hist.Percentile(0.0), 0.0);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Percentile(1.0), 0.0);
}

TEST_F(ObsTest, PercentileOfAllZerosIsZero) {
  Histogram& hist = GetHistogram("test.pct_zeros");
  for (int i = 0; i < 100; ++i) hist.Observe(0);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Percentile(0.99), 0.0);
}

TEST_F(ObsTest, PercentileSingleBucketInterpolatesWithinRange) {
  // 1000 lands in bucket [512, 1024); every estimate must stay inside
  // that bucket's range and the quantiles must be monotone.
  Histogram& hist = GetHistogram("test.pct_single");
  for (int i = 0; i < 100; ++i) hist.Observe(1000);
  const double p50 = hist.Percentile(0.50);
  const double p95 = hist.Percentile(0.95);
  const double p99 = hist.Percentile(0.99);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_GE(hist.Percentile(-1.0), 512.0);
  EXPECT_LE(hist.Percentile(2.0), 1024.0);
}

TEST_F(ObsTest, PercentilesAreMonotoneOverASpread) {
  Histogram& hist = GetHistogram("test.pct_spread");
  for (std::uint64_t v = 1; v <= 1024; ++v) hist.Observe(v);
  const double p50 = hist.Percentile(0.50);
  const double p95 = hist.Percentile(0.95);
  const double p99 = hist.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Half the samples lie in [512, 1024], so p50 lands in that top bucket.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p99, 2048.0);
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition.

TEST_F(ObsTest, OpenMetricsExpositionIsWellFormed) {
  GetCounter("test.om_counter").Add(3);
  GetGauge("test.om_gauge").Set(2.5);
  Histogram& hist = GetHistogram("test.om_hist");
  for (int i = 0; i < 10; ++i) hist.Observe(64);
  std::ostringstream os;
  WriteOpenMetrics(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE m2td_test_om_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("m2td_test_om_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE m2td_test_om_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("m2td_test_om_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE m2td_test_om_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("m2td_test_om_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("m2td_test_om_hist_count 10"), std::string::npos);
  EXPECT_NE(text.find("m2td_test_om_hist_sum 640"), std::string::npos);
  // The mandatory terminator, at the very end.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST_F(ObsTest, HistogramSummaryListsPercentiles) {
  GetHistogram("test.summary_hist").Observe(100);
  std::ostringstream os;
  WriteHistogramSummary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("test.summary_hist"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

TEST_F(ObsTest, MetricsJsonCarriesPercentiles) {
  GetHistogram("test.json_pct").Observe(8);
  std::ostringstream os;
  WriteMetricsJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-span CPU and allocation attribution.

TEST_F(ObsTest, SpanAttributesCpuAndAllocation) {
  {
    ObsSpan span("attributed");
    RecordAlloc(1000);
    RecordAlloc(24);
    // Burn a little CPU so the thread clock visibly advances.
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i) sink = sink + i * 0.5;
    (void)sink;
  }
  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].alloc_bytes, 1024u);
  EXPECT_GE(spans[0].alloc_count, 2u);
  EXPECT_GT(spans[0].cpu_us, 0.0);
  EXPECT_LE(spans[0].cpu_us, spans[0].duration_us * 16.0 + 1e4);
}

TEST_F(ObsTest, AllocTallyAggregatesAcrossParallelWorkers) {
  const AllocStats before = GlobalAllocStats();
  parallel::ParallelFor(0, 64, 1, [](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) RecordAlloc(10);
  });
  const AllocStats after = GlobalAllocStats();
  // Worker-thread tallies (live or retired) must all fold into the global
  // view: 64 recorded allocations of 10 bytes each.
  EXPECT_GE(after.bytes - before.bytes, 640u);
  EXPECT_GE(after.count - before.count, 64u);
}

TEST_F(ObsTest, AllocTrackingModeIsReported) {
  // Whichever way the build was configured, the flag must be callable and
  // ThreadAllocStats monotone.
  (void)AllocTrackingCompiledIn();
  const AllocStats a = ThreadAllocStats();
  RecordAlloc(1);
  const AllocStats b = ThreadAllocStats();
  EXPECT_GE(b.bytes, a.bytes + 1);
  EXPECT_GE(b.count, a.count + 1);
}

// ---------------------------------------------------------------------------
// Resource sampler.

TEST_F(ObsTest, ReadResourceUsageReportsSaneValues) {
  const ResourceUsage usage = ReadResourceUsage();
  EXPECT_GT(usage.rss_bytes, 0u);
  EXPECT_GT(usage.peak_rss_bytes, 0u);
  EXPECT_GE(usage.peak_rss_bytes, usage.rss_bytes / 2);  // same ballpark
  EXPECT_GE(usage.num_threads, 1u);
  EXPECT_GE(usage.utime_seconds + usage.stime_seconds, 0.0);
}

TEST_F(ObsTest, ResourceSamplerCollectsSeriesAndCounterTracks) {
  ResourceSampler sampler;
  ResourceSamplerOptions options;
  options.interval_ms = 1;
  sampler.Start(std::move(options));
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  const std::vector<ResourceUsage> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 2u);  // immediate first + closing sample
  EXPECT_GT(sampler.Peak().rss_bytes, 0u);
  EXPECT_GT(GetGauge("proc.rss_bytes").value(), 0.0);
  // With tracing on, the sampler emits Chrome counter tracks.
  const std::vector<CounterRecord> counters = Tracer::Get().Counters();
  const bool has_memory_track =
      std::any_of(counters.begin(), counters.end(),
                  [](const CounterRecord& c) { return c.name == "proc.memory"; });
  EXPECT_TRUE(has_memory_track);
}

TEST_F(ObsTest, ResourceSamplerStopsOnCancellation) {
  std::atomic<bool> cancelled{false};
  ResourceSampler sampler;
  ResourceSamplerOptions options;
  options.interval_ms = 1;
  options.cancelled = [&cancelled] { return cancelled.load(); };
  sampler.Start(std::move(options));
  EXPECT_TRUE(sampler.running());
  cancelled.store(true);
  // The sampler thread polls the probe once per tick; give it time.
  for (int i = 0; i < 2000 && sampler.running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(sampler.running());
  sampler.Stop();  // join after self-exit must be clean and idempotent
  sampler.Stop();
  EXPECT_FALSE(sampler.Samples().empty());
}

TEST_F(ObsTest, ResourceSamplerDecimatesInsteadOfGrowing) {
  ResourceSampler sampler;
  ResourceSamplerOptions options;
  options.interval_ms = 1;
  options.max_samples = 8;  // tiny cap to force decimation quickly
  sampler.Start(std::move(options));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  sampler.Stop();
  EXPECT_LE(sampler.Samples().size(), 8u);
  EXPECT_GE(sampler.Samples().size(), 2u);
}

// ---------------------------------------------------------------------------
// Atomic export & structured instants.

TEST_F(ObsTest, ChromeTraceExportIsAtomicAndLeavesNoTemp) {
  { ObsSpan span("atomic_export"); }
  const std::string path =
      ::testing::TempDir() + "obs_test_trace_atomic.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(Tracer::Get().ExportChromeTrace(path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonIsBalanced(buffer.str()));
  std::filesystem::remove(path);
}

TEST_F(ObsTest, CounterRecordsExportAsChromeCounterEvents) {
  Tracer::Get().RecordCounter("test.track", {{"depth", 3.0}, {"load", 0.5}});
  const std::vector<CounterRecord> counters = Tracer::Get().Counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].name, "test.track");
  ASSERT_EQ(counters[0].values.size(), 2u);
  std::ostringstream os;
  Tracer::Get().WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"C\""), 1u);
  EXPECT_NE(json.find("\"depth\":3"), std::string::npos);
  EXPECT_NE(json.find("\"load\":0.5"), std::string::npos);
}

TEST_F(ObsTest, WarningInstantsCarrySeverityAndSourceArgs) {
  M2TD_LOG_WARNING() << "structured mirror";
  const std::vector<InstantRecord> instants = Tracer::Get().Instants();
  ASSERT_EQ(instants.size(), 1u);
  // The name is the bare message — the "[WARN file:line]" header moved
  // into structured args.
  EXPECT_EQ(instants[0].name, "structured mirror");
  bool saw_severity = false, saw_source = false;
  for (const TraceArg& arg : instants[0].args) {
    if (arg.key == "severity") {
      saw_severity = true;
      EXPECT_EQ(arg.value, "WARN");
      EXPECT_TRUE(arg.quoted);
    }
    if (arg.key == "source") {
      saw_source = true;
      EXPECT_NE(arg.value.find("obs_test.cc:"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_severity);
  EXPECT_TRUE(saw_source);
}

TEST_F(ObsTest, TextSummaryIncludesCpuAndAllocColumns) {
  {
    ObsSpan span("cpu_alloc_summary");
    RecordAlloc(4096);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    (void)sink;
  }
  std::ostringstream os;
  Tracer::Get().WriteTextSummary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("cpu_alloc_summary"), std::string::npos);
  EXPECT_NE(text.find("cpu "), std::string::npos);
  EXPECT_NE(text.find("alloc "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run report.

TEST_F(ObsTest, RunReportGoldenSchema) {
  {
    ObsSpan span("report_phase");
    RecordAlloc(128);
  }
  ResourceSampler sampler;
  ResourceSamplerOptions sampler_options;
  sampler_options.interval_ms = 1;
  sampler.Start(std::move(sampler_options));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.Stop();

  RunReport report("obs_test");
  report.set_command("golden");
  report.set_seed(42);
  report.AddFlag("rank", "5");
  report.AddDataset("input.txt", 0xDEADBEEF, 1234);
  report.SetResourceSamples(sampler.Samples());
  report.SetExit(0, "ok");

  std::ostringstream os;
  report.WriteJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  // Golden key set: every schema-v1 section must be present. Additive
  // changes extend this list; renames/removals must bump
  // kRunReportSchemaVersion and update tools/compare_runs.py.
  for (const char* key :
       {"\"schema_version\":1", "\"kind\":\"m2td_run_report\"",
        "\"tool\":\"obs_test\"", "\"command\":\"golden\"",
        "\"generated_unix_time\":", "\"build\":", "\"build_type\":",
        "\"compiler\":", "\"alloc_tracking\":", "\"hardware\":",
        "\"hardware_threads\":", "\"page_size_bytes\":", "\"flags\":",
        "\"rank\":\"5\"", "\"seed\":42", "\"datasets\":",
        "\"crc32\":3735928559", "\"phases\":", "\"name\":\"report_phase\"",
        "\"wall_seconds\":", "\"cpu_seconds\":", "\"alloc_bytes\":",
        "\"resources\":", "\"peak_rss_bytes\":", "\"rss_samples\":",
        "\"minor_faults\":", "\"max_threads\":", "\"alloc_bytes_total\":",
        "\"metrics\":", "\"counters\":", "\"exit\":", "\"status\":0",
        "\"outcome\":\"ok\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Fault counters are force-registered so clean runs report zeros.
  EXPECT_NE(json.find("\"robust.watchdog.stalls\""), std::string::npos);
  // The phase totals must be live. Without the operator-new shim the
  // span's allocation delta is exactly the RecordAlloc(128) call; with
  // it, incidental allocations add on top, so only check exactness in
  // the default build.
  if (!AllocTrackingCompiledIn()) {
    EXPECT_NE(json.find("\"alloc_bytes\":128"), std::string::npos);
  }
}

TEST_F(ObsTest, RunReportWriteFileIsAtomic) {
  RunReport report("obs_test");
  report.set_command("atomic");
  report.SetExit(0, "ok");
  const std::string path = ::testing::TempDir() + "obs_test_report.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(report.WriteFile(path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonIsBalanced(buffer.str()));
  std::filesystem::remove(path);
}

TEST_F(ObsTest, MetricsSnapshotterRewritesFile) {
  GetCounter("test.snapshot_counter").Add(7);
  const std::string path = ::testing::TempDir() + "obs_test_snapshot.prom";
  std::filesystem::remove(path);
  MetricsSnapshotter snapshotter;
  MetricsSnapshotterOptions options;
  options.path = path;
  options.interval_ms = 10;
  snapshotter.Start(std::move(options));
  EXPECT_TRUE(snapshotter.running());
  snapshotter.Stop();  // writes a final snapshot even if no tick fired
  EXPECT_FALSE(snapshotter.running());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("m2td_test_snapshot_counter_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("# EOF"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// SIGTERM drain: a signalled process must still emit a complete report.

void RunSigtermDrainReportChild(const std::string& path) {
  robust::CancelSource source;
  if (!robust::InstallCancelOnSignal(source)) _exit(3);
  SetTracingEnabled(true);
  SetMetricsEnabled(true);
  ResourceSampler sampler;
  ResourceSamplerOptions sampler_options;
  sampler_options.interval_ms = 1;
  const robust::CancelToken token = source.token();
  sampler_options.cancelled = [token] { return token.IsCancelled(); };
  sampler.Start(std::move(sampler_options));
  {
    ObsSpan span("pre_signal_phase");
    RecordAlloc(64);
  }
  raise(SIGTERM);
  for (int i = 0; i < 2000 && !source.token().IsCancelled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!source.token().IsCancelled()) _exit(4);
  sampler.Stop();
  RunReport report("obs_test");
  report.set_command("sigterm_drain");
  report.SetResourceSamples(sampler.Samples());
  report.SetExit(1, "cancelled", "sigterm");
  if (!report.WriteFile(path).ok()) _exit(5);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.find("\"outcome\":\"cancelled\"") == std::string::npos) _exit(6);
  if (text.find("\"name\":\"pre_signal_phase\"") == std::string::npos) {
    _exit(7);
  }
  if (!JsonIsBalanced(text)) _exit(8);
  _exit(42);
}

TEST_F(ObsTest, SigtermDrainEmitsCompleteReport) {
  // EXPECT_EXIT forks; a 1-thread pool keeps the parent effectively
  // single-threaded at the fork (the child starts its own sampler).
  const int previous_threads = parallel::GlobalThreads();
  parallel::SetGlobalThreads(1);
  const std::string path =
      ::testing::TempDir() + "obs_test_sigterm_report.json";
  std::filesystem::remove(path);
  EXPECT_EXIT(RunSigtermDrainReportChild(path),
              ::testing::ExitedWithCode(42), "");
  std::filesystem::remove(path);
  parallel::SetGlobalThreads(previous_threads);
}

}  // namespace
}  // namespace m2td::obs
