// Chaos soak harness (ctest -L chaos): seeded schedules combining
// failpoints, mid-phase cancellation, deadline expiry, and kill/resume,
// asserting the pipeline never hangs, never corrupts a checkpoint, and
// always surfaces a clean cancellation Status.
//
// Deterministic mid-phase triggers ride on the obs span listener (the
// same feed the watchdog uses): the listener fires a CancelSource — or
// raises SIGINT — at exactly the k-th open of a named phase span, so
// "cancel during the 3rd HOOI sweep" is reproducible, not timing-based.
// Because there is a single process-wide listener slot, these tests never
// run a watchdog concurrently with an armed trigger.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/m2td.h"
#include "core/ooc_m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "io/chunk_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "robust/retry.h"
#include "tensor/hooi.h"
#include "tensor/sparse_tensor.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td {
namespace {

// ------------------------------------------- span-listener chaos triggers

std::atomic<int> g_span_hits{0};
std::atomic<int> g_trigger_at{0};
std::atomic<bool> g_raise_sigint{false};
robust::CancelSource* g_chaos_source = nullptr;
const char* g_trigger_span = nullptr;

void ChaosSpanListener(std::string_view name, bool begin) {
  if (!begin || g_trigger_span == nullptr || name != g_trigger_span) return;
  if (g_span_hits.fetch_add(1) + 1 != g_trigger_at.load()) return;
  if (g_raise_sigint.load()) {
    std::raise(SIGINT);
  } else if (g_chaos_source != nullptr) {
    g_chaos_source->Cancel(robust::CancelCause::kCancelled);
  }
}

/// RAII arming of the chaos listener: fires once, at the `at`-th open
/// (1-based) of the span named `span`.
class SpanTrigger {
 public:
  SpanTrigger(const char* span, int at, robust::CancelSource* source,
              bool raise_sigint = false) {
    g_span_hits.store(0);
    g_trigger_at.store(at);
    g_chaos_source = source;
    g_raise_sigint.store(raise_sigint);
    g_trigger_span = span;
    obs::SetSpanListener(&ChaosSpanListener);
  }
  ~SpanTrigger() {
    obs::SetSpanListener(nullptr);
    g_trigger_span = nullptr;
    g_chaos_source = nullptr;
    g_raise_sigint.store(false);
  }
  SpanTrigger(const SpanTrigger&) = delete;
  SpanTrigger& operator=(const SpanTrigger&) = delete;
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("m2td_chaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    obs::SetMetricsEnabled(true);
  }
  void TearDown() override {
    obs::SetSpanListener(nullptr);
    robust::DisarmAllFailpoints();
    robust::SetGlobalRetryPolicy(robust::RetryPolicy{});
    robust::SetRetrySleeperForTest(nullptr);
    obs::SetMetricsEnabled(false);
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::unique_ptr<ensemble::DynamicalSystemModel> PendulumModel(
    std::uint32_t resolution) {
  ensemble::ModelOptions options;
  options.parameter_resolution = resolution;
  options.time_resolution = resolution;
  auto model = ensemble::MakeDoublePendulumModel(options);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

tensor::SparseTensor RandomSparse(const std::vector<std::uint64_t>& shape,
                                  std::uint64_t nnz, std::uint64_t seed) {
  tensor::SparseTensor x(shape);
  Rng rng(seed);
  std::vector<std::uint32_t> idx(shape.size());
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      idx[m] = static_cast<std::uint32_t>(rng.UniformInt(shape[m]));
    }
    x.AppendEntry(idx, rng.Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

void ExpectBitIdentical(const core::M2tdResult& got,
                        const core::M2tdResult& want) {
  EXPECT_EQ(got.join_nnz, want.join_nnz);
  ASSERT_EQ(got.tucker.core.shape(), want.tucker.core.shape());
  for (std::uint64_t i = 0; i < want.tucker.core.NumElements(); ++i) {
    EXPECT_EQ(got.tucker.core.flat(i), want.tucker.core.flat(i))
        << "core[" << i << "]";
  }
  ASSERT_EQ(got.tucker.factors.size(), want.tucker.factors.size());
  for (std::size_t m = 0; m < want.tucker.factors.size(); ++m) {
    const linalg::Matrix& fa = want.tucker.factors[m];
    const linalg::Matrix& fb = got.tucker.factors[m];
    ASSERT_EQ(fb.rows(), fa.rows());
    ASSERT_EQ(fb.cols(), fa.cols());
    for (std::size_t i = 0; i < fa.rows(); ++i) {
      for (std::size_t j = 0; j < fa.cols(); ++j) {
        EXPECT_EQ(fb(i, j), fa(i, j)) << "factor " << m;
      }
    }
  }
}

// --------------------------------------- deterministic mid-phase cancels

TEST_F(ChaosTest, HooiCancelledMidSweepReturnsBestSoFar) {
  tensor::SparseTensor x = RandomSparse({8, 8, 8}, 220, /*seed=*/21);
  tensor::HooiOptions options;
  options.max_iterations = 8;
  options.tolerance = 0.0;  // never converges: every sweep runs
  tensor::HooiInfo info;
  robust::CancelSource source;
  {
    SpanTrigger trigger("hooi_sweep", /*at=*/3, &source);
    robust::CancelScope scope(source.token());
    auto tucker = tensor::HooiSparse(x, {3, 3, 3}, options, &info);
    ASSERT_TRUE(tucker.ok()) << tucker.status();  // anytime: OK, not error
    EXPECT_EQ(tucker->core.shape(), (std::vector<std::uint64_t>{3, 3, 3}));
  }
  EXPECT_EQ(info.interrupted, robust::CancelCause::kCancelled);
  // The trigger fired at the open of sweep 3, so exactly two sweeps
  // completed and the best-so-far state is theirs.
  EXPECT_EQ(info.iterations, 2);
  EXPECT_FALSE(info.converged);
}

TEST_F(ChaosTest, ExpiredDeadlineFailsPipelineUpFront) {
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  core::M2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  robust::CancelSource source(robust::Deadline::AfterMillis(-1.0));
  robust::CancelScope scope(source.token());
  auto result = core::M2tdDecompose(*subs, *partition, model->space().Shape(),
                                    options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ChaosTest, OocCancelMidSlabFlushesCheckpointThenResumesBitIdentical) {
  auto model = PendulumModel(5);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  auto store1 =
      io::ChunkStore::Create(Path("s1"), subs->x1.shape(), {2, 2, 2});
  auto store2 =
      io::ChunkStore::Create(Path("s2"), subs->x2.shape(), {2, 2, 2});
  ASSERT_TRUE(store1.ok() && store2.ok());
  ASSERT_TRUE(store1->Write(subs->x1).ok());
  ASSERT_TRUE(store2->Write(subs->x2).ok());

  core::M2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto uninterrupted = core::M2tdDecomposeFromStores(
      *store1, *store2, *partition, model->space().Shape(), options);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();

  // Cancel at the open of the 4th pivot slab (of 5). The drain path must
  // flush a snapshot covering the three completed slabs before returning.
  core::OocCheckpointOptions checkpoint;
  checkpoint.checkpoint_dir = Path("ckpt");
  checkpoint.checkpoint_every = 2;
  robust::CancelSource source;
  {
    SpanTrigger trigger("pivot_slab", /*at=*/4, &source);
    robust::CancelScope scope(source.token());
    auto cancelled = core::M2tdDecomposeFromStores(
        *store1, *store2, *partition, model->space().Shape(), options,
        checkpoint);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  }

  obs::GetCounter("robust.ooc_resumes").Reset();
  checkpoint.resume = true;
  auto resumed = core::M2tdDecomposeFromStores(
      *store1, *store2, *partition, model->space().Shape(), options,
      checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(obs::GetCounter("robust.ooc_resumes").value(), 1u);
  ExpectBitIdentical(*resumed, *uninterrupted);
}

TEST_F(ChaosTest, ThreadDm2tdCancelMidPhaseDrainsWithoutRetrying) {
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  robust::SetRetrySleeperForTest([](double) {});
  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.num_workers = 2;
  options.retry.max_retries = 3;

  obs::GetCounter("robust.retry_attempts").Reset();
  robust::CancelSource source;
  {
    // Phase 1 opens one "dist_reduce"; the 2nd is phase 2's join, so the
    // cancel lands just as the stitch's reduce tasks are about to start.
    SpanTrigger trigger("dist_reduce", /*at=*/2, &source);
    robust::CancelScope scope(source.token());
    auto result = core::DM2tdDecompose(*subs, *partition,
                                       model->space().Shape(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // The run stopped inside phase 2: no phase-3 reduce ever opened.
  EXPECT_EQ(g_span_hits.load(), 2);
  // Cancellation is not a task failure: the retry layer must not replay.
  EXPECT_EQ(obs::GetCounter("robust.retry_attempts").value(), 0u);
}

// ------------------------------------------------------------ seeded soak

TEST_F(ChaosTest, SeededScheduleSoakNeverHangsOrMiscounts) {
  // Each seed arms a different combination of probabilistic failpoints,
  // deadlines, and an asynchronous canceller; the run may succeed, be
  // cancelled, deadline-exceed, or exhaust retries — but it must always
  // return a clean Status (the test completing at all proves no hang,
  // and ASAN/TSAN runs of this binary prove no corruption).
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  robust::SetRetrySleeperForTest([](double) {});

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    core::DM2tdOptions options;
    options.ranks = std::vector<std::uint64_t>(5, 2);
    options.num_workers = 2;
    options.retry.max_retries = 6;
    ASSERT_TRUE(robust::ArmFailpointsFromString(
                    "dist.map_task:prob=0.25,seed=" +
                    std::to_string(seed))
                    .ok());
    robust::CancelSource source(
        seed % 2 == 1 ? robust::Deadline::AfterMillis(5.0 * double(seed))
                      : robust::Deadline::Infinite());
    std::thread canceller;
    if (seed % 3 == 2) {
      canceller = std::thread([&source, seed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2 + seed));
        source.Cancel();
      });
    }
    Result<core::DM2tdResult> result = [&] {
      robust::CancelScope scope(source.token());
      return core::DM2tdDecompose(*subs, *partition, model->space().Shape(),
                                  options);
    }();
    if (canceller.joinable()) canceller.join();
    robust::DisarmAllFailpoints();
    if (result.ok()) {
      EXPECT_EQ(result->tucker.core.shape(),
                (std::vector<std::uint64_t>(5, 2)))
          << "seed " << seed;
    } else {
      const StatusCode code = result.status().code();
      EXPECT_TRUE(robust::IsCancellation(result.status()) ||
                  code == StatusCode::kInternal)
          << "seed " << seed << ": " << result.status();
    }
  }
}

// ------------------------------------------------ SIGINT graceful drain

/// Child body for the SIGINT-drain subprocess test: raises a real SIGINT
/// at the open of the 4th pivot slab, expects the installed handler +
/// cooperative checks to drain the run into a flushed checkpoint, then
/// exits 42 on success (any other exit code pinpoints the failed step).
void RunSigintDrainChild(const io::ChunkStore& store1,
                         const io::ChunkStore& store2,
                         const core::PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const core::M2tdOptions& options,
                         const core::OocCheckpointOptions& checkpoint) {
  robust::CancelSource source;
  if (!robust::InstallCancelOnSignal(source)) _exit(3);
  SpanTrigger trigger("pivot_slab", /*at=*/4, nullptr, /*raise_sigint=*/true);
  robust::CancelScope scope(source.token());
  auto result = core::M2tdDecomposeFromStores(store1, store2, partition,
                                              full_shape, options,
                                              checkpoint);
  if (result.ok()) _exit(4);  // the signal should have cancelled the run
  if (result.status().code() != StatusCode::kCancelled) _exit(5);
  if (!std::filesystem::exists(
          std::filesystem::path(checkpoint.checkpoint_dir) /
          "journal.m2td")) {
    _exit(6);  // drain must leave a valid journal behind
  }
  _exit(42);
}

TEST_F(ChaosTest, SigintDrainFlushesJournalAndResumeIsBitIdentical) {
  // The child is forked by EXPECT_EXIT, so the process must be effectively
  // single-threaded at the fork: a 1-thread global pool runs every region
  // inline on the initiator (no worker threads at all).
  const int previous_threads = parallel::GlobalThreads();
  parallel::SetGlobalThreads(1);

  auto model = PendulumModel(5);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  auto store1 =
      io::ChunkStore::Create(Path("s1"), subs->x1.shape(), {2, 2, 2});
  auto store2 =
      io::ChunkStore::Create(Path("s2"), subs->x2.shape(), {2, 2, 2});
  ASSERT_TRUE(store1.ok() && store2.ok());
  ASSERT_TRUE(store1->Write(subs->x1).ok());
  ASSERT_TRUE(store2->Write(subs->x2).ok());

  core::M2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto uninterrupted = core::M2tdDecomposeFromStores(
      *store1, *store2, *partition, model->space().Shape(), options);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();

  core::OocCheckpointOptions checkpoint;
  checkpoint.checkpoint_dir = Path("ckpt");
  checkpoint.checkpoint_every = 2;
  EXPECT_EXIT(RunSigintDrainChild(*store1, *store2, *partition,
                                  model->space().Shape(), options,
                                  checkpoint),
              ::testing::ExitedWithCode(42), "");

  // The checkpoint the child flushed on SIGINT lives on the shared
  // filesystem; resuming from it must reproduce the uninterrupted run
  // bit for bit.
  obs::GetCounter("robust.ooc_resumes").Reset();
  checkpoint.resume = true;
  auto resumed = core::M2tdDecomposeFromStores(
      *store1, *store2, *partition, model->space().Shape(), options,
      checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(obs::GetCounter("robust.ooc_resumes").value(), 1u);
  ExpectBitIdentical(*resumed, *uninterrupted);

  parallel::SetGlobalThreads(previous_threads);
}

}  // namespace
}  // namespace m2td
