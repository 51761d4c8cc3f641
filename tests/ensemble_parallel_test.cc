// Parallel simulation: the trajectory-memo warm-up must reproduce the
// serial Cell() loop exactly — values, simulation counts, failpoint
// poisoning — at every pool size, and cancellation must never be memoized
// as a failed simulation.

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pf_partition.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"

namespace m2td {
namespace {

using ensemble::ConventionalScheme;
using ensemble::DynamicalSystemModel;
using ensemble::SimulationModel;

constexpr int kPoolSizes[] = {1, 2, 4};
constexpr ConventionalScheme kSchemes[] = {
    ConventionalScheme::kRandom, ConventionalScheme::kGrid,
    ConventionalScheme::kSlice, ConventionalScheme::kLatinHypercube};
/// Poisons exactly one fiber: the 8th trajectory simulated.
constexpr char kPoisonOne[] = "sim.trajectory:after=7,times=1";

class PoolGuard {
 public:
  explicit PoolGuard(int threads) { parallel::SetGlobalThreads(threads); }
  ~PoolGuard() { parallel::SetGlobalThreads(parallel::HardwareThreads()); }
};

/// Hides a model's WarmTrajectories: builders then read every cell through
/// Cell(), simulating each miss inline — the serial oracle.
class SerialView : public SimulationModel {
 public:
  explicit SerialView(SimulationModel* model) : model_(model) {}
  const ensemble::ParameterSpace& space() const override {
    return model_->space();
  }
  std::size_t time_mode() const override { return model_->time_mode(); }
  double Cell(const std::vector<std::uint32_t>& indices) override {
    return model_->Cell(indices);
  }
  std::uint64_t SimulationsRun() const override {
    return model_->SimulationsRun();
  }
  const std::string& name() const override { return model_->name(); }

 private:
  SimulationModel* model_;
};

/// Double pendulum with `res` values per parameter and 10 time samples
/// (90 RK4 steps, so each trajectory passes a cancellation check).
std::unique_ptr<DynamicalSystemModel> Pendulum(std::uint32_t res) {
  ensemble::ModelOptions options;
  options.parameter_resolution = res;
  auto model = ensemble::MakeDoublePendulumModel(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).ValueOrDie();
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameDense(const tensor::DenseTensor& got,
                     const tensor::DenseTensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::uint64_t i = 0; i < want.NumElements(); ++i) {
    ASSERT_EQ(Bits(got.flat(i)), Bits(want.flat(i))) << "cell " << i;
  }
}

void ExpectSameSparse(const tensor::SparseTensor& got,
                      const tensor::SparseTensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(got.NumNonZeros(), want.NumNonZeros());
  for (std::uint64_t e = 0; e < want.NumNonZeros(); ++e) {
    for (std::size_t m = 0; m < want.num_modes(); ++m) {
      ASSERT_EQ(got.Index(m, e), want.Index(m, e)) << "entry " << e;
    }
    ASSERT_EQ(Bits(got.Value(e)), Bits(want.Value(e))) << "entry " << e;
  }
}

std::uint64_t CountNaN(const tensor::SparseTensor& x) {
  std::uint64_t nan = 0;
  for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
    nan += std::isnan(x.Value(e)) ? 1 : 0;
  }
  return nan;
}

/// Distinct parameter combinations (time excluded) behind the entries of
/// both sub-ensembles.
std::uint64_t DistinctCombos(const core::SubEnsembles& subs,
                             const core::PfPartition& partition,
                             const ensemble::ParameterSpace& space) {
  std::set<std::vector<std::uint32_t>> combos;
  for (int side : {1, 2}) {
    const tensor::SparseTensor& x = side == 1 ? subs.x1 : subs.x2;
    const std::vector<std::size_t> modes = partition.SubTensorModes(side);
    for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
      std::vector<std::uint32_t> full(space.num_modes());
      for (std::size_t m = 0; m < space.num_modes(); ++m) {
        full[m] = space.DefaultIndex(m);
      }
      for (std::size_t k = 0; k < modes.size(); ++k) {
        full[modes[k]] = x.Index(k, e);
      }
      full[0] = 0;  // time
      combos.insert(full);
    }
  }
  return combos.size();
}

class ParallelSimulationTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override {
    robust::DisarmAllFailpoints();
    obs::SetMetricsEnabled(false);
  }

  /// Arms `spec` afresh (resetting its hit count); "" disarms.
  static void Arm(const std::string& spec) {
    robust::DisarmAllFailpoints();
    if (!spec.empty()) {
      ASSERT_TRUE(robust::ArmFailpointsFromString(spec).ok());
    }
  }
};

TEST_F(ParallelSimulationTest, FullTensorBitIdenticalToSerialCellLoop) {
  constexpr std::uint32_t kRes = 4;
  for (const std::string spec : {"", kPoisonOne}) {
    // Oracle: every cell read through Cell() in linear order.
    Arm(spec);
    auto oracle_model = Pendulum(kRes);
    tensor::DenseTensor want(oracle_model->space().Shape());
    std::vector<std::uint32_t> idx(want.num_modes());
    for (std::uint64_t linear = 0; linear < want.NumElements(); ++linear) {
      std::uint64_t rest = linear;
      for (std::size_t m = 0; m < want.num_modes(); ++m) {
        idx[m] = static_cast<std::uint32_t>(rest / want.Stride(m));
        rest %= want.Stride(m);
      }
      want.flat(linear) = oracle_model->Cell(idx);
    }
    ASSERT_EQ(oracle_model->SimulationsRun(), kRes * kRes * kRes * kRes);

    for (int threads : kPoolSizes) {
      SCOPED_TRACE("spec '" + spec + "', threads " + std::to_string(threads));
      PoolGuard pool(threads);
      Arm(spec);
      auto model = Pendulum(kRes);
      auto full = ensemble::BuildFullTensor(model.get());
      ASSERT_TRUE(full.ok()) << full.status();
      ExpectSameDense(*full, want);
      EXPECT_EQ(model->SimulationsRun(), oracle_model->SimulationsRun());
    }
  }
}

TEST_F(ParallelSimulationTest, SubEnsemblesBitIdenticalToSerialOracle) {
  constexpr std::uint32_t kRes = 4;
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  for (double density : {1.0, 0.5}) {
    core::SubEnsembleOptions options;
    options.cell_density = density;
    options.seed = 29;
    for (const std::string spec : {"", kPoisonOne}) {
      Arm(spec);
      auto oracle_model = Pendulum(kRes);
      SerialView serial(oracle_model.get());
      auto want = core::BuildSubEnsembles(&serial, *partition, options);
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(oracle_model->SimulationsRun(),
                DistinctCombos(*want, *partition, oracle_model->space()));
      if (!spec.empty()) {
        EXPECT_GT(CountNaN(want->x1) + CountNaN(want->x2), 0u);
      }

      for (int threads : kPoolSizes) {
        SCOPED_TRACE("density " + std::to_string(density) + ", spec '" +
                     spec + "', threads " + std::to_string(threads));
        PoolGuard pool(threads);
        Arm(spec);
        auto model = Pendulum(kRes);
        auto subs = core::BuildSubEnsembles(model.get(), *partition, options);
        ASSERT_TRUE(subs.ok()) << subs.status();
        ExpectSameSparse(subs->x1, want->x1);
        ExpectSameSparse(subs->x2, want->x2);
        EXPECT_EQ(subs->cells_evaluated, want->cells_evaluated);
        EXPECT_EQ(model->SimulationsRun(), oracle_model->SimulationsRun());
      }
    }
  }
}

TEST_F(ParallelSimulationTest, ConventionalEnsemblesBitIdenticalToSerialOracle) {
  constexpr std::uint32_t kRes = 4;
  constexpr std::uint64_t kBudget = 40;
  for (ConventionalScheme scheme : kSchemes) {
    for (const std::string spec : {"", kPoisonOne}) {
      Arm(spec);
      auto oracle_model = Pendulum(kRes);
      SerialView serial(oracle_model.get());
      Rng oracle_rng(11);
      auto want = ensemble::BuildConventionalEnsemble(&serial, scheme,
                                                      kBudget, &oracle_rng);
      ASSERT_TRUE(want.ok()) << want.status();
      Rng select_rng(11);
      auto combos = ensemble::SelectParameterCombinations(
          oracle_model->space(), 0, scheme, kBudget, &select_rng);
      ASSERT_TRUE(combos.ok());
      EXPECT_EQ(oracle_model->SimulationsRun(), combos->size());

      for (int threads : kPoolSizes) {
        SCOPED_TRACE(std::string(ensemble::ConventionalSchemeName(scheme)) +
                     ", spec '" + spec + "', threads " +
                     std::to_string(threads));
        PoolGuard pool(threads);
        Arm(spec);
        auto model = Pendulum(kRes);
        Rng rng(11);
        auto built =
            ensemble::BuildConventionalEnsemble(model.get(), scheme, kBudget,
                                                &rng);
        ASSERT_TRUE(built.ok()) << built.status();
        ExpectSameSparse(*built, *want);
        EXPECT_EQ(model->SimulationsRun(), combos->size());
        if (!spec.empty()) {
          EXPECT_GT(CountNaN(*built), 0u);
        }
      }
    }
  }
}

// ------------------------------------------------------------ cancellation

class SimulationCancelTest : public ParallelSimulationTest {
 protected:
  static std::uint64_t Failed() {
    return obs::GetCounter("ensemble.failed_simulations").value();
  }
};

TEST_F(SimulationCancelTest, PreFiredTokenIsNotAFailedSimulation) {
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  for (int threads : kPoolSizes) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PoolGuard pool(threads);
    auto model = Pendulum(4);
    const std::uint64_t failed = Failed();
    robust::CancelSource source;
    source.Cancel();
    {
      robust::CancelScope scope(source.token());
      auto full = ensemble::BuildFullTensor(model.get());
      ASSERT_FALSE(full.ok());
      EXPECT_EQ(full.status().code(), StatusCode::kCancelled);
      auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
      ASSERT_FALSE(subs.ok());
      EXPECT_EQ(subs.status().code(), StatusCode::kCancelled);
      Rng rng(3);
      auto ensemble = ensemble::BuildConventionalEnsemble(
          model.get(), ConventionalScheme::kRandom, 20, &rng);
      ASSERT_FALSE(ensemble.ok());
      EXPECT_EQ(ensemble.status().code(), StatusCode::kCancelled);
    }
    EXPECT_EQ(model->SimulationsRun(), 0u);  // the memo is empty
    EXPECT_EQ(Failed(), failed);

    // Nothing was poisoned: the uncancelled build simulates every fiber.
    auto full = ensemble::BuildFullTensor(model.get());
    ASSERT_TRUE(full.ok()) << full.status();
    for (std::uint64_t i = 0; i < full->NumElements(); ++i) {
      ASSERT_TRUE(std::isfinite(full->flat(i))) << "cell " << i;
    }
    EXPECT_EQ(model->SimulationsRun(), 256u);
  }
}

TEST_F(SimulationCancelTest, MidRunDeadlineMemoizesOnlyFinishedTrajectories) {
  // 4096 trajectories take tens of milliseconds even on four threads, so a
  // 10 ms deadline expires while they run.
  constexpr std::uint32_t kRes = 8;
  constexpr std::uint64_t kCombos = kRes * kRes * kRes * kRes;
  auto oracle_model = Pendulum(kRes);
  auto want = ensemble::BuildFullTensor(oracle_model.get());
  ASSERT_TRUE(want.ok());

  auto model = Pendulum(kRes);
  const std::uint64_t failed = Failed();
  {
    robust::CancelSource source(robust::Deadline::AfterMillis(10.0));
    robust::CancelScope scope(source.token());
    auto full = ensemble::BuildFullTensor(model.get());
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), StatusCode::kDeadlineExceeded);
  }
  // Only finished simulations were memoized, and none was poisoned.
  EXPECT_LT(model->SimulationsRun(), kCombos);
  EXPECT_EQ(Failed(), failed);

  {
    robust::CancelSource source(robust::Deadline::AfterMillis(10.0));
    robust::CancelScope scope(source.token());
    Rng rng(5);
    auto ensemble = ensemble::BuildConventionalEnsemble(
        model.get(), ConventionalScheme::kRandom, kCombos, &rng);
    ASSERT_FALSE(ensemble.ok());
    EXPECT_EQ(ensemble.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_LT(model->SimulationsRun(), kCombos);
  EXPECT_EQ(Failed(), failed);

  // The serial robust builder stops too, rather than counting the
  // cancelled simulations as failures and drawing replacements.
  auto robust_model = Pendulum(kRes);
  ensemble::EnsembleBuildOptions options;
  options.batch_size = kCombos;
  ensemble::EnsembleBuildReport report;
  {
    robust::CancelSource source(robust::Deadline::AfterMillis(10.0));
    robust::CancelScope scope(source.token());
    Rng rng(5);
    auto ensemble = ensemble::BuildConventionalEnsembleRobust(
        robust_model.get(), ConventionalScheme::kRandom, kCombos, &rng,
        options, &report);
    ASSERT_FALSE(ensemble.ok());
    EXPECT_EQ(ensemble.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(report.failed_simulations, 0u);
  EXPECT_EQ(report.replacement_draws, 0u);
  EXPECT_EQ(Failed(), failed);

  // Resuming without a deadline fills in exactly the missing trajectories
  // and reproduces the uninterrupted build bit for bit.
  auto full = ensemble::BuildFullTensor(model.get());
  ASSERT_TRUE(full.ok()) << full.status();
  ExpectSameDense(*full, *want);
  EXPECT_EQ(model->SimulationsRun(), kCombos);
}

}  // namespace
}  // namespace m2td
