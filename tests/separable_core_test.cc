// The join-free core (SeparableCore) against its oracle: the join tensor
// JeStitch materializes, contracted by CoreFromSparse. Sweeps plain and
// zero-join, all four methods, one and two pivot modes, pivot-first and
// interleaved layouts, and three cell densities; every case also has a
// pivot simulated on only one side.

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/je_stitch.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "core/separable_core.h"
#include "parallel/thread_pool.h"
#include "tensor/ttm.h"
#include "util/random.h"

namespace m2td::core {
namespace {

const std::vector<std::uint64_t> kShape = {4, 3, 3, 4, 3};

/// Pivot modes and side-1 modes of each layout (side 2 takes the rest).
PfPartition Layout(int pivots, bool interleaved) {
  Result<PfPartition> partition =
      pivots == 1 ? (interleaved ? MakePartition(5, {2}, {0, 4})
                                 : MakePartition(5, {0}))
                  : (interleaved ? MakePartition(5, {1, 3}, {0, 4})
                                 : MakePartition(5, {0, 1}, {2}));
  EXPECT_TRUE(partition.ok());
  return *partition;
}

/// Random coalesced sub-tensors: each (pivot, free) cell is simulated with
/// probability `density`, and side 2 never simulates the last pivot.
SubEnsembles RandomSubs(const PfPartition& partition, double density,
                        std::uint64_t seed) {
  Rng rng(seed);
  SubEnsembles subs;
  for (int side = 1; side <= 2; ++side) {
    std::vector<std::uint64_t> shape;
    for (std::size_t m : partition.SubTensorModes(side)) {
      shape.push_back(kShape[m]);
    }
    tensor::SparseTensor x(shape);
    std::uint64_t cells = 1, pivots = 1;
    for (std::uint64_t d : shape) cells *= d;
    for (std::size_t i = 0; i < partition.pivot_modes.size(); ++i) {
      pivots *= shape[i];
    }
    std::vector<std::uint32_t> idx(shape.size());
    for (std::uint64_t c = 0; c < cells; ++c) {
      std::uint64_t rest = c;
      for (std::size_t m = shape.size(); m-- > 0;) {
        idx[m] = static_cast<std::uint32_t>(rest % shape[m]);
        rest /= shape[m];
      }
      const bool last_pivot = c / (cells / pivots) == pivots - 1;
      if (rng.UniformDouble() >= density || (side == 2 && last_pivot)) {
        continue;
      }
      x.AppendEntry(idx, rng.Gaussian());
    }
    x.SortAndCoalesce();
    (side == 1 ? subs.x1 : subs.x2) = std::move(x);
  }
  return subs;
}

double MaxAbs(const tensor::DenseTensor& t) {
  double m = 0.0;
  for (double v : t.data()) m = std::max(m, std::abs(v));
  return m;
}

using OracleParam = std::tuple<M2tdMethod, bool, int, bool, double>;

class SeparableCoreOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(SeparableCoreOracle, MatchesJeStitchPlusCoreFromSparse) {
  const auto [method, zero_join, pivots, interleaved, density] = GetParam();
  const PfPartition partition = Layout(pivots, interleaved);
  const SubEnsembles subs = RandomSubs(partition, density, 7 + pivots);
  M2tdOptions options;
  options.method = method;
  options.ranks = {3, 2, 2, 3, 2};
  options.stitch.zero_join = zero_join;
  Result<M2tdResult> result = M2tdDecompose(subs, partition, kShape, options);
  ASSERT_TRUE(result.ok()) << result.status();

  Result<tensor::SparseTensor> join =
      JeStitch(subs, partition, kShape, options.stitch);
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_EQ(result->join_nnz, join->NumNonZeros());
  ASSERT_GT(join->NumNonZeros(), 0u);
  Result<tensor::DenseTensor> oracle =
      tensor::CoreFromSparse(*join, result->tucker.factors);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(result->tucker.core.shape(), oracle->shape());
  const double scale = MaxAbs(*oracle);
  ASSERT_GT(scale, 0.0);
  double max_diff = 0.0;
  for (std::uint64_t i = 0; i < oracle->NumElements(); ++i) {
    max_diff = std::max(
        max_diff, std::abs(result->tucker.core.flat(i) - oracle->flat(i)));
  }
  EXPECT_LE(max_diff / scale, 1e-12);
}

std::string OracleName(const ::testing::TestParamInfo<OracleParam>& info) {
  const auto [method, zero_join, pivots, interleaved, density] = info.param;
  const char* methods[] = {"Avg", "Concat", "Select", "Weighted"};
  return std::string(methods[static_cast<int>(method)]) +
         (zero_join ? "ZeroJoin" : "Join") + std::to_string(pivots) +
         "Pivot" + (interleaved ? "Interleaved" : "PivotFirst") + "Density" +
         std::to_string(static_cast<int>(density * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SeparableCoreOracle,
    ::testing::Combine(::testing::Values(M2tdMethod::kAvg,
                                         M2tdMethod::kConcat,
                                         M2tdMethod::kSelect,
                                         M2tdMethod::kWeighted),
                       ::testing::Bool(), ::testing::Values(1, 2),
                       ::testing::Bool(), ::testing::Values(1.0, 0.5, 0.2)),
    OracleName);

TEST(SeparableCoreTest, BitIdenticalAtOneAndFourThreads) {
  const PfPartition partition = Layout(2, true);
  const SubEnsembles subs = RandomSubs(partition, 0.5, 3);
  for (bool zero_join : {false, true}) {
    M2tdOptions options;
    options.ranks = {3, 2, 2, 3, 2};
    options.stitch.zero_join = zero_join;
    std::vector<double> cores[2];
    const int threads[] = {1, 4};
    for (int t = 0; t < 2; ++t) {
      parallel::SetGlobalThreads(threads[t]);
      Result<M2tdResult> result =
          M2tdDecompose(subs, partition, kShape, options);
      ASSERT_TRUE(result.ok()) << result.status();
      cores[t] = result->tucker.core.data();
    }
    parallel::SetGlobalThreads(parallel::HardwareThreads());
    EXPECT_EQ(cores[0], cores[1]) << "zero_join " << zero_join;
  }
}

TEST(SeparableCoreTest, RejectsMismatchedInputs) {
  const PfPartition partition = Layout(1, false);
  std::vector<linalg::Matrix> factors;
  for (std::uint64_t d : kShape) factors.emplace_back(d, 2);
  Result<SeparableCore> sep = SeparableCore::Make(partition, kShape, factors);
  ASSERT_TRUE(sep.ok());
  // Uncoalesced sub-tensors, and a core of the wrong shape.
  SubEnsembles subs = RandomSubs(partition, 1.0, 1);
  subs.x1.AppendEntry({0, 0, 0}, 1.0);
  EXPECT_EQ(sep->SumsOf(subs).status().code(), StatusCode::kInvalidArgument);
  tensor::DenseTensor wrong({2, 2});
  EXPECT_FALSE(sep->AddToCore({}, std::nullopt, &wrong).ok());
  factors.pop_back();
  EXPECT_FALSE(SeparableCore::Make(partition, kShape, factors).ok());
}

}  // namespace
}  // namespace m2td::core
