#ifndef M2TD_CORE_JE_STITCH_H_
#define M2TD_CORE_JE_STITCH_H_

#include <cstdint>
#include <vector>

#include "core/pf_partition.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::core {

/// Join-Ensemble stitching variants (Section V-C).
struct StitchOptions {
  /// With `zero_join` every (e1, e2) pair of *selected* free configurations
  /// whose pivot group contains at least one of the two member simulations
  /// yields a join entry, the missing member contributing 0 — the paper's
  /// density booster for sparse sub-ensembles. Without it, only pairs where
  /// both members were simulated join.
  bool zero_join = false;
};

/// \brief JE-stitching: joins the two sub-ensemble tensors along the pivot
/// modes into the N-mode join tensor J, laid out in the *original* mode
/// order of `full_shape`.
///
/// For each pivot configuration, every simulation of X1 pairs with every
/// simulation of X2 sharing it; the join entry at (pivot, e1, e2) carries
/// the average of the two member values. With P pivot configurations and E
/// free configurations per side this turns 2*P*E simulations into up to
/// P*E^2 join cells — the effective-density squaring at the heart of the
/// paper. Inputs must be coalesced; the output is coalesced.
///
/// Pivot keys are emitted in ascending order (in both the plain and the
/// zero-join branch), and within a pivot the side-1 and then side-2 free
/// keys in ascending order. For a pivot-first layout (pivot modes, then
/// side-1 modes, then side-2 modes, each list ascending, as in the
/// paper's time-pivot default) the join is therefore canonical by
/// construction, and its final SortAndCoalesce is only the verify scan;
/// other layouts are counting-sorted there.
Result<tensor::SparseTensor> JeStitch(const SubEnsembles& subs,
                                      const PfPartition& partition,
                                      const std::vector<std::uint64_t>&
                                          full_shape,
                                      const StitchOptions& options = {});

}  // namespace m2td::core

#endif  // M2TD_CORE_JE_STITCH_H_
