#include "core/dm2td_internal.h"

#include <limits>

#include "tensor/matricize.h"

namespace m2td::core::dm2td_internal {

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

PivotSums SumPivotGroup(const SeparableCore& sep, std::uint64_t pivot_key,
                        std::span<const TensorCell> cells) {
  PivotSums sums = sep.Empty(pivot_key);
  for (const TensorCell& cell : cells) {
    sep.Add(cell.kappa, cell.idx, cell.value, &sums);
  }
  return sums;
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

}  // namespace m2td::core::dm2td_internal
