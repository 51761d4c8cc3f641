#ifndef M2TD_CORE_PF_PARTITION_H_
#define M2TD_CORE_PF_PARTITION_H_

#include <cstdint>
#include <vector>

#include "ensemble/simulation_model.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"
#include "util/result.h"

namespace m2td::core {

/// \brief A Pivoted/Fixed partitioning of an N-mode parameter space
/// (Section V-B of the paper).
///
/// The k `pivot_modes` are shared between the two sub-systems; the
/// `side1_modes` are free in sub-system S1 (and pinned to fixing constants
/// in S2), `side2_modes` vice versa. The three sets are disjoint and
/// together cover every mode of the original space.
struct PfPartition {
  std::vector<std::size_t> pivot_modes;
  std::vector<std::size_t> side1_modes;
  std::vector<std::size_t> side2_modes;

  /// Modes covered by the partition (pivots plus both sides).
  std::size_t NumModes() const {
    return pivot_modes.size() + side1_modes.size() + side2_modes.size();
  }

  /// Sub-tensor mode order for side `s` (1 or 2): pivots first, then that
  /// side's free modes, each mapped to its original-space mode id.
  std::vector<std::size_t> SubTensorModes(int side) const;
};

/// Builds and validates a partition. When `side1_modes` is empty, the
/// non-pivot modes are split in half in mode order (first half -> side 1),
/// matching the paper's default (N-k)/2 construction; otherwise the split
/// is taken as given and side 2 receives the remaining modes. Fails unless
/// the pivot and side sets are disjoint, in range, and the two sides are
/// non-empty.
Result<PfPartition> MakePartition(std::size_t num_modes,
                                  std::vector<std::size_t> pivot_modes,
                                  std::vector<std::size_t> side1_modes = {});

/// How configurations are drawn when a density is below 1.
enum class ConfigSelection {
  /// Uniform random subset — the paper's "worst case" choice, used in its
  /// experiments.
  kRandom,
  /// Evenly spaced subset of the enumerated grid (a grid-sampling
  /// sub-ensemble per Section V-B's "random, grid, or slice" remark).
  kEvenlySpaced,
};

/// How the sub-ensembles sample their (pivot x free) grids.
struct SubEnsembleOptions {
  /// Fraction of the pivot grid used as pivot configurations (the paper's
  /// P, as a density in (0, 1]).
  double pivot_density = 1.0;
  /// Fraction of each side's free grid used as free configurations (the
  /// paper's E, as a density in (0, 1]).
  double side_density = 1.0;
  /// Fraction of the (pivot x free) cross product actually simulated per
  /// side. At 1.0 each side is a complete grid over its selected
  /// configurations; below 1.0 a uniform random subset of the cells is
  /// simulated — the paper's "sampled the sub-systems randomly" worst case,
  /// where zero-join stitching becomes relevant (Table V).
  double cell_density = 1.0;
  /// How pivot/side configurations are chosen when their density < 1.
  ConfigSelection config_selection = ConfigSelection::kRandom;
  /// Seed for random selections (config and cell level).
  std::uint64_t seed = 17;
};

/// The two sub-ensemble tensors produced by PF-partitioning.
///
/// x1 has modes `partition.SubTensorModes(1)` (pivots then side-1 free
/// modes), x2 likewise for side 2. During generation the other side's modes
/// are pinned to the model's fixing constants (ParameterSpace default
/// indices). `pivot_configs` and `side*_configs` list the selected grid
/// multi-indices, shared by both sides for pivots.
struct SubEnsembles {
  tensor::SparseTensor x1;
  tensor::SparseTensor x2;
  std::vector<std::vector<std::uint32_t>> pivot_configs;
  std::vector<std::vector<std::uint32_t>> side1_configs;
  std::vector<std::vector<std::uint32_t>> side2_configs;
  /// Total tensor cells evaluated (the 2 * P * E budget actually consumed).
  std::uint64_t cells_evaluated = 0;
};

/// \brief Runs the two PF-partitioned sub-ensembles against the model.
///
/// Every selected pivot configuration is combined with every selected free
/// configuration on each side (the paper's P x E cross product), so the
/// budget consumed is |P| * (|E1| + |E2|) cells.
Result<SubEnsembles> BuildSubEnsembles(ensemble::SimulationModel* model,
                                       const PfPartition& partition,
                                       const SubEnsembleOptions& options);

}  // namespace m2td::core

#endif  // M2TD_CORE_PF_PARTITION_H_
