// The counting-sort orders must equal the comparison-sort orders they
// replaced, bit for bit: SortAndCoalesce against the per-mode comparator
// sort, CsfModeIndex::Build against the (column, leaf) comparator sort,
// and JeStitch against a pairwise join put in canonical form by the same
// comparator sort. The comparator sorts below are the oracles. Duplicates
// are merged in append order (the SortAndCoalesce contract), so the
// SortAndCoalesce oracle uses the stable flavour of the comparator sort.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/je_stitch.h"
#include "core/pf_partition.h"
#include "obs/trace.h"
#include "tensor/csf.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"

namespace m2td::tensor {
namespace {

/// A COO tensor outside SparseTensor, for the oracles.
struct Coo {
  std::vector<std::uint64_t> shape;
  std::vector<std::vector<std::uint32_t>> indices;  // per mode
  std::vector<double> values;
};

Coo ToCoo(const SparseTensor& x) {
  Coo coo{x.shape(), {}, x.Values()};
  for (std::size_t m = 0; m < x.num_modes(); ++m) {
    coo.indices.push_back(x.IndexArray(m));
  }
  return coo;
}

SparseTensor FromCoo(const Coo& coo) {
  SparseTensor x(coo.shape);
  std::vector<std::uint32_t> idx(coo.shape.size());
  for (std::size_t e = 0; e < coo.values.size(); ++e) {
    for (std::size_t m = 0; m < idx.size(); ++m) idx[m] = coo.indices[m][e];
    x.AppendEntry(idx, coo.values[e]);
  }
  return x;
}

/// The comparator sort SortAndCoalesce used before the counting sort,
/// made stable, followed by the same run merge.
Coo OracleSortAndCoalesce(const Coo& in, CoalescePolicy policy) {
  const std::size_t n = in.values.size();
  const std::size_t modes = in.shape.size();
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     for (std::size_t m = 0; m < modes; ++m) {
                       if (in.indices[m][a] != in.indices[m][b]) {
                         return in.indices[m][a] < in.indices[m][b];
                       }
                     }
                     return false;
                   });
  auto same_coords = [&](std::uint64_t a, std::uint64_t b) {
    for (std::size_t m = 0; m < modes; ++m) {
      if (in.indices[m][a] != in.indices[m][b]) return false;
    }
    return true;
  };
  Coo out{in.shape, std::vector<std::vector<std::uint32_t>>(modes), {}};
  std::vector<std::uint64_t> run_counts;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint64_t e = order[pos];
    if (pos > 0 && same_coords(e, order[pos - 1])) {
      out.values.back() += in.values[e];
      ++run_counts.back();
    } else {
      for (std::size_t m = 0; m < modes; ++m) {
        out.indices[m].push_back(in.indices[m][e]);
      }
      out.values.push_back(in.values[e]);
      run_counts.push_back(1);
    }
  }
  if (policy == CoalescePolicy::kMean) {
    for (std::size_t i = 0; i < out.values.size(); ++i) {
      out.values[i] /= static_cast<double>(run_counts[i]);
    }
  }
  return out;
}

/// Bitwise comparison: values are compared as bit patterns, not with ==.
void ExpectSameCoo(const SparseTensor& actual, const Coo& expected) {
  ASSERT_TRUE(actual.IsSorted());
  ASSERT_EQ(actual.shape(), expected.shape);
  ASSERT_EQ(actual.NumNonZeros(), expected.values.size());
  for (std::size_t m = 0; m < expected.shape.size(); ++m) {
    ASSERT_EQ(actual.IndexArray(m), expected.indices[m]) << "mode " << m;
  }
  for (std::size_t e = 0; e < expected.values.size(); ++e) {
    ASSERT_EQ(std::memcmp(&actual.Values()[e], &expected.values[e],
                          sizeof(double)),
              0)
        << "entry " << e << ": " << actual.Values()[e] << " vs "
        << expected.values[e];
  }
}

/// `nnz` random entries over `shape` (duplicates whenever the space is
/// small), in random order.
Coo RandomCoo(const std::vector<std::uint64_t>& shape, std::size_t nnz,
              Rng* rng) {
  Coo coo{shape, std::vector<std::vector<std::uint32_t>>(shape.size()), {}};
  for (std::size_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      coo.indices[m].push_back(
          static_cast<std::uint32_t>(rng->UniformInt(shape[m])));
    }
    coo.values.push_back(rng->Gaussian());
  }
  return coo;
}

std::vector<std::uint64_t> RandomShape(std::size_t modes, Rng* rng) {
  std::vector<std::uint64_t> shape(modes);
  for (std::uint64_t& d : shape) d = 1 + rng->UniformInt(7);
  return shape;
}

void CheckSortAndCoalesce(const Coo& input) {
  for (CoalescePolicy policy : {CoalescePolicy::kSum, CoalescePolicy::kMean}) {
    SparseTensor x = FromCoo(input);
    x.SortAndCoalesce(policy);
    ExpectSameCoo(x, OracleSortAndCoalesce(input, policy));
  }
}

TEST(SortOrderTest, SortAndCoalesceMatchesComparatorSortOnRandomShapes) {
  Rng rng(101);
  for (std::size_t modes = 1; modes <= 6; ++modes) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::vector<std::uint64_t> shape = RandomShape(modes, &rng);
      // From sparse to many duplicates per cell.
      const std::size_t nnz = 1 + rng.UniformInt(400);
      SCOPED_TRACE(::testing::Message() << modes << " modes, trial " << trial);
      CheckSortAndCoalesce(RandomCoo(shape, nnz, &rng));
    }
  }
}

TEST(SortOrderTest, SortAndCoalesceMatchesComparatorSortOnDimOneModes) {
  Rng rng(103);
  CheckSortAndCoalesce(RandomCoo({1}, 5, &rng));
  CheckSortAndCoalesce(RandomCoo({1, 1, 1}, 5, &rng));
  CheckSortAndCoalesce(RandomCoo({3, 1, 4, 1}, 60, &rng));
  CheckSortAndCoalesce(RandomCoo({1, 9}, 30, &rng));
}

TEST(SortOrderTest, SortAndCoalesceMatchesComparatorSortOnLongModes) {
  // 70,000 > 65,536 takes two 16-bit digit passes, in either position.
  Rng rng(107);
  CheckSortAndCoalesce(RandomCoo({70000}, 3000, &rng));
  CheckSortAndCoalesce(RandomCoo({3, 70000}, 3000, &rng));
  CheckSortAndCoalesce(RandomCoo({70000, 2, 5}, 3000, &rng));
  // Few distinct long-mode keys: duplicates across both digits.
  Coo coo = RandomCoo({200000, 3}, 500, &rng);
  for (std::uint32_t& i : coo.indices[0]) i = (i % 4) * 65536 + (i % 3);
  CheckSortAndCoalesce(coo);
}

TEST(SortOrderTest, SortAndCoalesceHandlesNearlySortedInputs) {
  Rng rng(109);
  for (std::size_t modes = 1; modes <= 4; ++modes) {
    const std::vector<std::uint64_t> shape(modes, 6);
    SparseTensor sorted = FromCoo(RandomCoo(shape, 200, &rng));
    sorted.SortAndCoalesce();
    const Coo canonical = ToCoo(sorted);
    ASSERT_GE(canonical.values.size(), 3u);
    SCOPED_TRACE(::testing::Message() << modes << " modes");

    // Already sorted: the early exit.
    CheckSortAndCoalesce(canonical);

    // Already sorted but for one adjacent duplicate.
    Coo duplicate = canonical;
    const std::size_t at = canonical.values.size() / 2;
    for (auto& idx : duplicate.indices) idx.insert(idx.begin() + at, idx[at]);
    duplicate.values.insert(duplicate.values.begin() + at, 0.25);
    CheckSortAndCoalesce(duplicate);

    // Already sorted but for one inversion.
    Coo inverted = canonical;
    for (auto& idx : inverted.indices) std::swap(idx[at], idx[at + 1]);
    std::swap(inverted.values[at], inverted.values[at + 1]);
    CheckSortAndCoalesce(inverted);
  }
}

TEST(SortOrderTest, DuplicatesMergeAsLeftFoldInAppendOrder) {
  // 1e16 + 1 rounds back to 1e16, so the fold order is visible: in append
  // order the three duplicates sum to 0, while e.g. (1e16 + -1e16) + 1 is
  // 1. Other cells are appended in a shuffled order around them.
  const std::vector<double> dups = {1e16, 1.0, -1e16};
  Rng rng(113);
  std::vector<std::vector<std::uint32_t>> others;
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 5; ++b) {
      if (a != 2 || b != 3) others.push_back({a, b});
    }
  }
  std::shuffle(others.begin(), others.end(), rng);
  for (CoalescePolicy policy : {CoalescePolicy::kSum, CoalescePolicy::kMean}) {
    SparseTensor x({4, 5});
    std::size_t next = 0;
    for (double v : dups) {
      for (int i = 0; i < 3; ++i) x.AppendEntry(others[next++], 1.0);
      x.AppendEntry({2, 3}, v);
    }
    while (next < others.size()) x.AppendEntry(others[next++], 1.0);
    x.SortAndCoalesce(policy);

    double fold = 0.0;
    for (double v : dups) fold += v;
    ASSERT_EQ(fold, 0.0);
    const double expected =
        policy == CoalescePolicy::kMean ? fold / 3.0 : fold;
    EXPECT_EQ(x.NumNonZeros(), 20u);
    ASSERT_TRUE(x.Find({2, 3}).has_value());
    EXPECT_EQ(*x.Find({2, 3}), expected);
    EXPECT_EQ(*x.Find({0, 0}), 1.0);
  }
}

TEST(StableLexOrderTest, OrdersByTheListedModesAndKeepsTies) {
  Rng rng(127);
  SparseTensor x = FromCoo(RandomCoo({3, 70000, 4}, 2000, &rng));
  // Mode order (2, 1), mode 0 ignored: ties keep ascending entry ids.
  const std::vector<std::uint64_t> order = StableLexOrder(x, {2, 1});
  std::vector<std::uint64_t> oracle(x.NumNonZeros());
  std::iota(oracle.begin(), oracle.end(), 0);
  std::stable_sort(oracle.begin(), oracle.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return std::make_pair(x.Index(2, a), x.Index(1, a)) <
                            std::make_pair(x.Index(2, b), x.Index(1, b));
                   });
  EXPECT_EQ(order, oracle);
  EXPECT_EQ(StableLexOrder(x, {}).size(), x.NumNonZeros());
}

/// The comparator sort CsfModeIndex::Build used before the counting sort.
struct OracleCsf {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint64_t> columns;
  std::vector<std::uint32_t> leaves;
  std::vector<double> values;
};

OracleCsf BuildOracleCsf(const SparseTensor& x, std::size_t mode) {
  const std::size_t n = static_cast<std::size_t>(x.NumNonZeros());
  std::vector<std::uint64_t> columns(n);
  for (std::size_t e = 0; e < n; ++e) {
    columns[e] = x.MatricizationColumn(mode, e);
  }
  const std::vector<std::uint32_t>& leaf = x.IndexArray(mode);
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](std::uint64_t a, std::uint64_t b) {
    if (columns[a] != columns[b]) return columns[a] < columns[b];
    return leaf[a] < leaf[b];
  });
  OracleCsf out;
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint64_t e = perm[p];
    out.leaves.push_back(leaf[e]);
    out.values.push_back(x.Value(e));
    if (out.columns.empty() || out.columns.back() != columns[e]) {
      out.offsets.push_back(p);
      out.columns.push_back(columns[e]);
    }
  }
  out.offsets.push_back(n);
  return out;
}

void ExpectCsfMatchesOracle(const SparseTensor& x) {
  for (std::size_t mode = 0; mode < x.num_modes(); ++mode) {
    SCOPED_TRACE(::testing::Message() << "mode " << mode);
    const CsfModeIndex csf = CsfModeIndex::Build(x, mode);
    const OracleCsf oracle = BuildOracleCsf(x, mode);
    EXPECT_EQ(csf.fiber_offsets(), oracle.offsets);
    EXPECT_EQ(csf.fiber_columns(), oracle.columns);
    EXPECT_EQ(csf.leaf_coords(), oracle.leaves);
    ASSERT_EQ(csf.values().size(), oracle.values.size());
    EXPECT_EQ(std::memcmp(csf.values().data(), oracle.values.data(),
                          oracle.values.size() * sizeof(double)),
              0);
  }
}

TEST(SortOrderTest, CsfBuildMatchesComparatorSortForEveryMode) {
  Rng rng(131);
  for (std::size_t modes = 1; modes <= 6; ++modes) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(::testing::Message() << modes << " modes, trial " << trial);
      SparseTensor x =
          FromCoo(RandomCoo(RandomShape(modes, &rng), 300, &rng));
      x.SortAndCoalesce();
      ExpectCsfMatchesOracle(x);
    }
  }
  SparseTensor long_mode = FromCoo(RandomCoo({4, 70000, 3}, 3000, &rng));
  long_mode.SortAndCoalesce();
  ExpectCsfMatchesOracle(long_mode);
  SparseTensor empty({3, 4});
  ExpectCsfMatchesOracle(empty);
}

}  // namespace
}  // namespace m2td::tensor

namespace m2td::core {
namespace {

using tensor::CoalescePolicy;
using tensor::Coo;
using tensor::SparseTensor;

/// Keeps each cell of `shape` with probability `density`, in lexicographic
/// order, with a random value.
SparseTensor RandomSub(const std::vector<std::uint64_t>& shape,
                       double density, Rng* rng) {
  SparseTensor x(shape);
  std::uint64_t cells = 1;
  for (std::uint64_t d : shape) cells *= d;
  std::vector<std::uint32_t> idx(shape.size());
  for (std::uint64_t linear = 0; linear < cells; ++linear) {
    std::uint64_t rest = linear;
    for (std::size_t m = shape.size(); m-- > 0;) {
      idx[m] = static_cast<std::uint32_t>(rest % shape[m]);
      rest /= shape[m];
    }
    const double value = rng->Gaussian();
    if (rng->UniformDouble() < density) x.AppendEntry(idx, value);
  }
  x.SortAndCoalesce();
  return x;
}

std::vector<std::uint64_t> SubShape(const std::vector<std::uint64_t>& full,
                                    const PfPartition& partition, int side) {
  std::vector<std::uint64_t> shape;
  for (std::size_t m : partition.SubTensorModes(side)) {
    shape.push_back(full[m]);
  }
  return shape;
}

/// The join by its definition: every pair of simulations sharing a pivot
/// (with zero_join, every candidate pair under every pivot either side
/// simulated, a missing member counting 0), put in canonical form by the
/// comparator sort.
Coo OracleJoin(const SubEnsembles& subs, const PfPartition& partition,
               const std::vector<std::uint64_t>& full_shape, bool zero_join) {
  const std::size_t k = partition.pivot_modes.size();
  using Key = std::vector<std::uint32_t>;
  // side -> pivot -> free coordinates -> value.
  std::map<Key, std::map<Key, double>> side[2];
  std::map<Key, bool> candidates[2];
  for (int s = 0; s < 2; ++s) {
    const SparseTensor& x = s == 0 ? subs.x1 : subs.x2;
    for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
      Key pivot, free;
      for (std::size_t m = 0; m < x.num_modes(); ++m) {
        (m < k ? pivot : free).push_back(x.Index(m, e));
      }
      side[s][pivot][free] = x.Value(e);
      candidates[s][free] = true;
    }
  }
  std::map<Key, bool> pivots;
  for (const auto& [pivot, entries] : side[0]) {
    if (zero_join || side[1].count(pivot) > 0) pivots[pivot] = true;
  }
  if (zero_join) {
    for (const auto& [pivot, entries] : side[1]) pivots[pivot] = true;
  }

  Coo coo{full_shape,
          std::vector<std::vector<std::uint32_t>>(full_shape.size()), {}};
  auto emit = [&](const Key& pivot, const Key& f1, const Key& f2, double v) {
    std::vector<std::uint32_t> full(full_shape.size());
    for (std::size_t i = 0; i < k; ++i) {
      full[partition.pivot_modes[i]] = pivot[i];
    }
    for (std::size_t i = 0; i < f1.size(); ++i) {
      full[partition.side1_modes[i]] = f1[i];
    }
    for (std::size_t i = 0; i < f2.size(); ++i) {
      full[partition.side2_modes[i]] = f2[i];
    }
    for (std::size_t m = 0; m < full.size(); ++m) {
      coo.indices[m].push_back(full[m]);
    }
    coo.values.push_back(v);
  };
  for (const auto& [pivot, unused] : pivots) {
    const std::map<Key, double>& one = side[0][pivot];
    const std::map<Key, double>& two = side[1][pivot];
    for (const auto& [f1, c1] : candidates[0]) {
      for (const auto& [f2, c2] : candidates[1]) {
        const auto v1 = one.find(f1);
        const auto v2 = two.find(f2);
        const bool has1 = v1 != one.end();
        const bool has2 = v2 != two.end();
        if (zero_join ? !(has1 || has2) : !(has1 && has2)) continue;
        emit(pivot, f1, f2,
             0.5 * ((has1 ? v1->second : 0.0) + (has2 ? v2->second : 0.0)));
      }
    }
  }
  return tensor::OracleSortAndCoalesce(coo, CoalescePolicy::kMean);
}

/// Whether the "sort_coalesce" span of the stitch found its input
/// already canonical.
bool StitchJoinWasPresorted() {
  bool presorted = false;
  for (const obs::SpanRecord& span : obs::Tracer::Get().Spans()) {
    if (span.name != "sort_coalesce") continue;
    for (const obs::TraceArg& arg : span.args) {
      if (arg.key == "presorted") presorted = arg.value == "true";
    }
  }
  return presorted;
}

void CheckStitch(const PfPartition& partition,
                 const std::vector<std::uint64_t>& full_shape,
                 bool pivot_first) {
  Rng rng(137);
  for (double density : {1.0, 0.5, 0.2}) {
    SubEnsembles subs;
    subs.x1 = RandomSub(SubShape(full_shape, partition, 1), density, &rng);
    subs.x2 = RandomSub(SubShape(full_shape, partition, 2), density, &rng);
    for (bool zero_join : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "density " << density
                                        << ", zero_join " << zero_join);
      StitchOptions options;
      options.zero_join = zero_join;
      obs::Tracer::Get().Reset();
      obs::SetTracingEnabled(true);
      auto join = JeStitch(subs, partition, full_shape, options);
      obs::SetTracingEnabled(false);
      ASSERT_TRUE(join.ok()) << join.status().ToString();
      tensor::ExpectSameCoo(
          *join, OracleJoin(subs, partition, full_shape, zero_join));
      ASSERT_GT(join->NumNonZeros(), 0u);
      // Pivot-first joins are emitted canonical; a full interleaved join
      // needs the sort (a sparse one may happen to come out sorted).
      if (pivot_first || density == 1.0) {
        EXPECT_EQ(StitchJoinWasPresorted(), pivot_first);
      }
    }
  }
  obs::Tracer::Get().Reset();
}

TEST(SortOrderTest, JeStitchMatchesOracleOnPivotFirstPartition) {
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  CheckStitch(*partition, {4, 3, 5, 2, 4}, /*pivot_first=*/true);
}

TEST(SortOrderTest, JeStitchMatchesOracleOnInterleavedPartition) {
  PfPartition partition;
  partition.pivot_modes = {2};
  partition.side1_modes = {0, 4};
  partition.side2_modes = {1, 3};
  CheckStitch(partition, {3, 4, 5, 2, 3}, /*pivot_first=*/false);
}

}  // namespace
}  // namespace m2td::core
