#ifndef M2TD_CORE_DM2TD_INTERNAL_H_
#define M2TD_CORE_DM2TD_INTERNAL_H_

// Shared building blocks of the two D-M2TD execution backends. The
// in-process pool tasks (dm2td.cc) and the multi-process task bodies
// (dm2td_tasks.cc) both compute through these functions, so the backends
// agree bit for bit: identical per-group arithmetic (SumPivotGroup), pivot
// records in ascending key order, and one SeparableCore::AddToCore is what
// makes results independent of worker count, shard count, and kill
// schedule.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dm2td.h"
#include "core/pf_partition.h"
#include "core/separable_core.h"
#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::core::dm2td_internal {

/// One stored cell of a (sub-)tensor shipped through MapReduce.
struct TensorCell {
  int kappa = 0;  // 1 or 2: owning sub-tensor
  std::vector<std::uint32_t> idx;
  double value = 0.0;
};

/// Phase-1 reducer output: the Gram matrix of one sub-tensor mode.
struct GramPiece {
  int kappa = 0;
  std::size_t sub_mode = 0;
  linalg::Matrix gram;
};

/// Every stored cell of both sub-tensors: x1's (kappa 1), then x2's
/// (kappa 2), each in storage order — the global input order of phases 1
/// and 2 on both backends.
inline std::vector<TensorCell> CollectCells(const SubEnsembles& subs) {
  std::vector<TensorCell> cells;
  cells.reserve(subs.x1.NumNonZeros() + subs.x2.NumNonZeros());
  for (int kappa = 1; kappa <= 2; ++kappa) {
    const tensor::SparseTensor& sub = kappa == 1 ? subs.x1 : subs.x2;
    for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
      TensorCell cell{kappa, std::vector<std::uint32_t>(sub.num_modes()),
                      sub.Value(e)};
      for (std::size_t m = 0; m < sub.num_modes(); ++m) {
        cell.idx[m] = sub.Index(m, e);
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// Phase-1 reducer body: builds one sub-tensor from its cells and emits
/// the per-mode Gram pieces. Input cells must have unique indices (they
/// come from a coalesced sub-tensor), so SortAndCoalesce canonicalizes
/// the entry order regardless of arrival order.
Status BuildGramsForSub(int kappa, const std::vector<std::uint64_t>& shape,
                        const std::vector<TensorCell>& cells,
                        std::vector<GramPiece>* out);

/// Phase-2 reducer body: the partial sums of one pivot group. `cells`
/// must arrive in global input order (both backends guarantee this), so
/// the sums are reproducible.
PivotSums SumPivotGroup(const SeparableCore& sep, std::uint64_t pivot_key,
                        std::span<const TensorCell> cells);

/// Argument validation shared by both backends.
Status ValidateDm2tdArgs(const SubEnsembles& subs,
                         const PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const DM2tdOptions& options);

}  // namespace m2td::core::dm2td_internal

#endif  // M2TD_CORE_DM2TD_INTERNAL_H_
