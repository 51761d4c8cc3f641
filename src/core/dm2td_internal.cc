#include "core/dm2td_internal.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "tensor/matricize.h"

namespace m2td::core::dm2td_internal {

std::vector<std::size_t> StableKeyOrder(
    const std::vector<std::uint64_t>& keys) {
  const std::size_t n = keys.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t max_key = 0;
  for (std::uint64_t key : keys) max_key = std::max(max_key, key);
  std::vector<std::size_t> scratch(n);
  std::vector<std::size_t> count(std::size_t{1} << 16);
  for (int shift = 0; shift < 64 && (max_key >> shift) != 0; shift += 16) {
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t i : order) ++count[(keys[i] >> shift) & 0xFFFF];
    std::size_t next = 0;
    for (std::size_t& c : count) next += std::exchange(c, next);
    for (std::size_t i : order) {
      scratch[count[(keys[i] >> shift) & 0xFFFF]++] = i;
    }
    order.swap(scratch);
  }
  return order;
}

void SortJoinCells(std::vector<JoinCell>* cells) {
  if (cells->empty()) return;
  // Lexicographic order of the index vectors is numeric order of their
  // row-major rank under the observed per-mode extents. The extents never
  // exceed the full shape, whose rank ValidateDm2tdArgs bounds to 64 bits.
  const std::size_t modes = cells->front().idx.size();
  std::vector<std::uint64_t> extent(modes, 1);
  for (const JoinCell& cell : *cells) {
    for (std::size_t m = 0; m < modes; ++m) {
      extent[m] = std::max<std::uint64_t>(extent[m], cell.idx[m] + 1ULL);
    }
  }
  std::vector<std::uint64_t> keys(cells->size());
  for (std::size_t i = 0; i < cells->size(); ++i) {
    for (std::size_t m = 0; m < modes; ++m) {
      keys[i] = keys[i] * extent[m] + (*cells)[i].idx[m];
    }
  }
  std::vector<JoinCell> sorted;
  sorted.reserve(cells->size());
  for (std::size_t i : StableKeyOrder(keys)) {
    sorted.push_back(std::move((*cells)[i]));
  }
  cells->swap(sorted);
}

Status BuildGramsForSub(int kappa, const std::vector<std::uint64_t>& shape,
                        const std::vector<TensorCell>& cells,
                        std::vector<GramPiece>* out) {
  tensor::SparseTensor sub(shape);
  sub.Reserve(cells.size());
  for (const TensorCell& cell : cells) {
    sub.AppendEntry(cell.idx, cell.value);
  }
  sub.SortAndCoalesce();
  for (std::size_t m = 0; m < sub.num_modes(); ++m) {
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix gram, tensor::ModeGram(sub, m));
    out->push_back(GramPiece{kappa, m, std::move(gram)});
  }
  return Status::OK();
}

void JoinPivotGroup(std::uint64_t pivot_key,
                    std::span<const TensorCell> cells,
                    const JobGeometry& geometry, bool zero_join,
                    const std::vector<std::uint64_t>& cand1,
                    const std::vector<std::uint64_t>& cand2,
                    std::vector<JoinCell>* out) {
  std::unordered_map<std::uint64_t, double> lookup1, lookup2;
  for (const TensorCell& cell : cells) {
    if (cell.kappa == 1) {
      lookup1[SideKey(cell.idx, geometry.k, geometry.side1_dims)] =
          cell.value;
    } else {
      lookup2[SideKey(cell.idx, geometry.k, geometry.side2_dims)] =
          cell.value;
    }
  }
  std::vector<std::uint32_t> indices(geometry.num_modes);
  ScatterKey(pivot_key, geometry.pivot_dims, geometry.pivot_modes, &indices);
  auto emit_pair = [&](std::uint64_t key1, double v1, std::uint64_t key2,
                       double v2) {
    ScatterKey(key1, geometry.side1_dims, geometry.side1_modes, &indices);
    ScatterKey(key2, geometry.side2_dims, geometry.side2_modes, &indices);
    out->push_back(JoinCell{indices, 0.5 * (v1 + v2)});
  };
  if (!zero_join) {
    for (const auto& [key1, v1] : lookup1) {
      for (const auto& [key2, v2] : lookup2) emit_pair(key1, v1, key2, v2);
    }
    return;
  }
  for (std::uint64_t key1 : cand1) {
    const auto v1 = lookup1.find(key1);
    for (std::uint64_t key2 : cand2) {
      const auto v2 = lookup2.find(key2);
      if (v1 == lookup1.end() && v2 == lookup2.end()) continue;
      emit_pair(key1, v1 != lookup1.end() ? v1->second : 0.0, key2,
                v2 != lookup2.end() ? v2->second : 0.0);
    }
  }
}

void ContractFiber(std::uint64_t key,
                   std::span<const std::pair<std::uint32_t, double>> fiber,
                   const linalg::Matrix& factor, std::size_t n,
                   const std::vector<std::uint64_t>& current_shape,
                   std::vector<JoinCell>* out) {
  const std::size_t rank = factor.cols();
  std::vector<double> acc(rank, 0.0);
  for (const auto& [i_n, v] : fiber) {
    for (std::size_t j = 0; j < rank; ++j) {
      acc[j] += factor(i_n, j) * v;
    }
  }
  // Inverse of Phase3FiberKey: the row-major rank over all modes but n.
  std::vector<std::uint32_t> indices(current_shape.size());
  for (std::size_t m = current_shape.size(); m-- > 0;) {
    if (m == n) continue;
    indices[m] = static_cast<std::uint32_t>(key % current_shape[m]);
    key /= current_shape[m];
  }
  for (std::size_t j = 0; j < rank; ++j) {
    if (acc[j] == 0.0) continue;
    indices[n] = static_cast<std::uint32_t>(j);
    out->push_back(JoinCell{indices, acc[j]});
  }
}

Status ValidateDm2tdArgs(const SubEnsembles& subs,
                         const PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const DM2tdOptions& options) {
  const std::size_t num_modes = full_shape.size();
  if (partition.NumModes() != num_modes) {
    return Status::InvalidArgument("partition does not match full shape");
  }
  if (options.ranks.size() != num_modes) {
    return Status::InvalidArgument("one rank per original mode required");
  }
  // Every shuffle key is a row-major rank over some of these modes.
  std::uint64_t cells = 1;
  for (std::uint64_t d : full_shape) {
    if (d == 0 || cells > std::numeric_limits<std::uint64_t>::max() / d) {
      return Status::InvalidArgument(
          "full shape has no 64-bit row-major rank");
    }
    cells *= d;
  }
  if (!subs.x1.IsSorted() || !subs.x2.IsSorted()) {
    return Status::InvalidArgument("DM2TD requires coalesced sub-tensors");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.backend == DistBackend::kProcess && options.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  return Status::OK();
}

void GatherZeroJoinCandidates(const std::vector<TensorCell>& all_cells,
                              const JobGeometry& geometry,
                              std::vector<std::uint64_t>* cand1,
                              std::vector<std::uint64_t>* cand2) {
  std::unordered_set<std::uint64_t> set1, set2;
  for (const TensorCell& cell : all_cells) {
    if (cell.kappa == 1) {
      set1.insert(SideKey(cell.idx, geometry.k, geometry.side1_dims));
    } else {
      set2.insert(SideKey(cell.idx, geometry.k, geometry.side2_dims));
    }
  }
  cand1->assign(set1.begin(), set1.end());
  cand2->assign(set2.begin(), set2.end());
  std::sort(cand1->begin(), cand1->end());
  std::sort(cand2->begin(), cand2->end());
}

}  // namespace m2td::core::dm2td_internal
