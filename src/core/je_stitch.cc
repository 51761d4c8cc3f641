#include "core/je_stitch.h"

#include <functional>
#include <map>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace m2td::core {

namespace {

struct SideEntry {
  std::uint64_t side_key;
  double value;
};

/// Per-pivot-configuration group of one side's simulations, in ascending
/// pivot key order.
using PivotGroups = std::map<std::uint64_t, std::vector<SideEntry>>;

std::vector<std::uint64_t> ModeDims(
    const std::vector<std::uint64_t>& full_shape,
    const std::vector<std::size_t>& modes) {
  std::vector<std::uint64_t> dims;
  dims.reserve(modes.size());
  for (std::size_t m : modes) dims.push_back(full_shape[m]);
  return dims;
}

/// Groups a coalesced sub-tensor's entries by pivot configuration. The
/// sub-tensor's first k modes are the pivots, the rest the side's free
/// modes, so within a group the side keys come in ascending order.
PivotGroups GroupByPivot(const tensor::SparseTensor& sub, std::size_t k) {
  PivotGroups groups;
  const std::size_t modes = sub.num_modes();
  for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
    std::uint64_t pivot_key = 0;
    for (std::size_t m = 0; m < k; ++m) {
      pivot_key = pivot_key * sub.dim(m) + sub.Index(m, e);
    }
    std::uint64_t side_key = 0;
    for (std::size_t m = k; m < modes; ++m) {
      side_key = side_key * sub.dim(m) + sub.Index(m, e);
    }
    groups[pivot_key].push_back(SideEntry{side_key, sub.Value(e)});
  }
  return groups;
}

/// The values of `pivot_key`'s group in `groups` aligned with `candidates`
/// (ascending, and a superset of the group's side keys); null where the
/// group has no simulation.
std::vector<const double*> AlignToCandidates(
    const PivotGroups& groups, std::uint64_t pivot_key,
    const std::vector<std::uint64_t>& candidates) {
  std::vector<const double*> aligned(candidates.size(), nullptr);
  const auto it = groups.find(pivot_key);
  if (it == groups.end()) return aligned;
  std::size_t c = 0;
  for (const SideEntry& e : it->second) {
    while (candidates[c] != e.side_key) ++c;
    aligned[c] = &e.value;
  }
  return aligned;
}

/// Writes the decoded `key` over `dims` into `out` at the positions given
/// by `modes`.
void ScatterKey(std::uint64_t key, const std::vector<std::uint64_t>& dims,
                const std::vector<std::size_t>& modes,
                std::vector<std::uint32_t>* out) {
  for (std::size_t i = dims.size(); i-- > 0;) {
    (*out)[modes[i]] = static_cast<std::uint32_t>(key % dims[i]);
    key /= dims[i];
  }
}

/// Appends every entry of `src` to `dst` in entry order.
void AppendAll(tensor::SparseTensor& dst, const tensor::SparseTensor& src) {
  std::vector<std::uint32_t> idx(src.num_modes());
  for (std::uint64_t e = 0; e < src.NumNonZeros(); ++e) {
    for (std::size_t m = 0; m < src.num_modes(); ++m) idx[m] = src.Index(m, e);
    dst.AppendEntry(idx, src.Value(e));
  }
}

/// Runs `emit_for_key` over `keys` in parallel chunks, each chunk
/// appending into a chunk-local SparseTensor, and concatenates the local
/// tensors in ascending chunk order. Chunks are contiguous, in-order
/// slices of `keys`, so the concatenated append sequence is exactly the
/// serial one — identical at any thread count and for any chunking.
tensor::SparseTensor StitchOverKeys(
    const std::vector<std::uint64_t>& keys,
    const std::vector<std::uint64_t>& full_shape,
    const std::function<void(std::uint64_t key, tensor::SparseTensor& local,
                             std::vector<std::uint32_t>& indices)>&
        emit_for_key) {
  return parallel::ParallelReduce<tensor::SparseTensor>(
      0, keys.size(), 0, tensor::SparseTensor(full_shape),
      [&](std::uint64_t kb, std::uint64_t ke) {
        tensor::SparseTensor local(full_shape);
        std::vector<std::uint32_t> indices(full_shape.size());
        for (std::uint64_t i = kb; i < ke; ++i) {
          emit_for_key(keys[static_cast<std::size_t>(i)], local, indices);
        }
        return local;
      },
      [](tensor::SparseTensor& acc, tensor::SparseTensor&& local) {
        AppendAll(acc, local);
      },
      "je_stitch_join");
}

}  // namespace

Result<tensor::SparseTensor> JeStitch(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const StitchOptions& options) {
  if (partition.NumModes() != full_shape.size()) {
    return Status::InvalidArgument("partition does not match full shape");
  }
  const std::size_t k = partition.pivot_modes.size();
  if (subs.x1.num_modes() != k + partition.side1_modes.size() ||
      subs.x2.num_modes() != k + partition.side2_modes.size()) {
    return Status::InvalidArgument(
        "sub-tensor mode counts do not match the partition");
  }
  if (!subs.x1.IsSorted() || !subs.x2.IsSorted()) {
    return Status::InvalidArgument("JeStitch requires coalesced sub-tensors");
  }

  obs::ObsSpan span("je_stitch");
  span.Annotate("x1_nnz", subs.x1.NumNonZeros());
  span.Annotate("x2_nnz", subs.x2.NumNonZeros());
  span.Annotate("zero_join", options.zero_join ? "true" : "false");
  static obs::Counter& stitched_cells =
      obs::GetCounter("core.stitched_join_cells");
  static obs::Histogram& join_nnz_hist =
      obs::GetHistogram("core.join_nnz_per_stitch");

  const std::vector<std::uint64_t> pivot_dims =
      ModeDims(full_shape, partition.pivot_modes);
  const std::vector<std::uint64_t> side1_dims =
      ModeDims(full_shape, partition.side1_modes);
  const std::vector<std::uint64_t> side2_dims =
      ModeDims(full_shape, partition.side2_modes);

  PivotGroups groups1 = GroupByPivot(subs.x1, k);
  PivotGroups groups2 = GroupByPivot(subs.x2, k);

  if (!options.zero_join) {
    // Pivot keys in ascending order; the chunked scan preserves this
    // order, so the appended entry sequence matches the serial loop.
    std::vector<std::uint64_t> pivot_keys;
    pivot_keys.reserve(groups1.size());
    for (const auto& [pivot_key, list1] : groups1) {
      pivot_keys.push_back(pivot_key);
    }
    tensor::SparseTensor join = StitchOverKeys(
        pivot_keys, full_shape,
        [&](std::uint64_t pivot_key, tensor::SparseTensor& local,
            std::vector<std::uint32_t>& indices) {
          auto it2 = groups2.find(pivot_key);
          if (it2 == groups2.end()) return;
          const std::vector<SideEntry>& list1 = groups1.at(pivot_key);
          ScatterKey(pivot_key, pivot_dims, partition.pivot_modes, &indices);
          for (const SideEntry& e1 : list1) {
            ScatterKey(e1.side_key, side1_dims, partition.side1_modes,
                       &indices);
            for (const SideEntry& e2 : it2->second) {
              ScatterKey(e2.side_key, side2_dims, partition.side2_modes,
                         &indices);
              local.AppendEntry(indices, 0.5 * (e1.value + e2.value));
            }
          }
        });
    // Pivot keys and the free keys under each are ascending, so for a
    // pivot-first layout the join already is canonical and this is only
    // the verify scan; other layouts are counting-sorted.
    join.SortAndCoalesce(tensor::CoalescePolicy::kMean);
    span.Annotate("join_nnz", join.NumNonZeros());
    stitched_cells.Add(join.NumNonZeros());
    join_nnz_hist.Observe(join.NumNonZeros());
    return join;
  }

  // Zero-join: candidate free configurations are those selected anywhere in
  // the respective sub-ensemble; a pair joins if either member exists.
  std::set<std::uint64_t> cand1_set, cand2_set, pivot_union;
  for (const auto& [pivot_key, list] : groups1) {
    pivot_union.insert(pivot_key);
    for (const SideEntry& e : list) cand1_set.insert(e.side_key);
  }
  for (const auto& [pivot_key, list] : groups2) {
    pivot_union.insert(pivot_key);
    for (const SideEntry& e : list) cand2_set.insert(e.side_key);
  }
  const std::vector<std::uint64_t> cand1(cand1_set.begin(), cand1_set.end());
  const std::vector<std::uint64_t> cand2(cand2_set.begin(), cand2_set.end());
  const std::vector<std::uint64_t> union_keys(pivot_union.begin(),
                                              pivot_union.end());

  tensor::SparseTensor join = StitchOverKeys(
      union_keys, full_shape,
      [&](std::uint64_t pivot_key, tensor::SparseTensor& local,
          std::vector<std::uint32_t>& indices) {
        ScatterKey(pivot_key, pivot_dims, partition.pivot_modes, &indices);
        const std::vector<const double*> values1 =
            AlignToCandidates(groups1, pivot_key, cand1);
        const std::vector<const double*> values2 =
            AlignToCandidates(groups2, pivot_key, cand2);
        for (std::size_t i1 = 0; i1 < cand1.size(); ++i1) {
          const double* v1 = values1[i1];
          ScatterKey(cand1[i1], side1_dims, partition.side1_modes, &indices);
          for (std::size_t i2 = 0; i2 < cand2.size(); ++i2) {
            const double* v2 = values2[i2];
            if (v1 == nullptr && v2 == nullptr) continue;
            const double a = (v1 != nullptr) ? *v1 : 0.0;
            const double b = (v2 != nullptr) ? *v2 : 0.0;
            ScatterKey(cand2[i2], side2_dims, partition.side2_modes,
                       &indices);
            local.AppendEntry(indices, 0.5 * (a + b));
          }
        }
      });
  join.SortAndCoalesce(tensor::CoalescePolicy::kMean);
  span.Annotate("join_nnz", join.NumNonZeros());
  stitched_cells.Add(join.NumNonZeros());
  join_nnz_hist.Observe(join.NumNonZeros());
  return join;
}

}  // namespace m2td::core
