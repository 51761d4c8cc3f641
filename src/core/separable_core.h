#ifndef M2TD_CORE_SEPARABLE_CORE_H_
#define M2TD_CORE_SEPARABLE_CORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/pf_partition.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "util/result.h"

namespace m2td::core {

/// \brief The partial sums of one pivot configuration p.
///
/// For each side s, with S_s(p) the free configurations simulated at p and
/// ⊗U_s(e,:) the Kronecker product of side s's factor rows at e (first
/// side mode slowest):
///   A_s(p) = Σ_{e∈S_s(p)} x_s(p,e) · ⊗U_s(e,:)
///   C_s(p) = Σ_{e∈S_s(p)} ⊗U_s(e,:)
/// This record is the whole of what the join contributes to the core at
/// p, and the only record the distributed stitch shuffles.
struct PivotSums {
  std::uint64_t pivot_key = 0;
  /// |S1(p)| and |S2(p)|.
  std::uint64_t count1 = 0;
  std::uint64_t count2 = 0;
  std::vector<double> a1, c1, a2, c2;
};

/// Zero-join's side sums: C_s over the global candidate set (every free
/// configuration simulated at any pivot on side s), and its size E_s.
struct CandidateSums {
  std::uint64_t count1 = 0;
  std::uint64_t count2 = 0;
  std::vector<double> c1, c2;
};

/// \brief Join-free stitch and core recovery (docs/ALGORITHMS.md §V-C).
///
/// Every JE-stitch join cell is ½(x1 + x2) over one side-1 and one side-2
/// member sharing a pivot, so the core G = J ×ₙ Uₙᵀ separates exactly:
///   G = ½ Σ_p U_piv(p,:) ⊗ [A1(p) ⊗ C2(p) + C1(p) ⊗ A2(p)]
/// where U_piv(p,:) is the Kronecker product of the pivot factor rows at
/// p. With zero-join, C_s(p) is replaced by the candidate sums and p runs
/// over the pivots of either side (a missing member counts 0). J is never
/// built: the cost is O(nnz(X1) + nnz(X2)) · Πr_side plus P · |G|.
///
/// The in-memory, out-of-core and both distributed pipelines all run
/// these functions, so per-pivot sums accumulate entries in storage order
/// and the core sums pivots in ascending key order; results are
/// bit-identical at any thread count.
class SeparableCore {
 public:
  /// Validates the geometry: `factors` holds one matrix per original mode
  /// with full_shape[m] rows. `factors` must outlive the returned object.
  static Result<SeparableCore> Make(
      const PfPartition& partition,
      const std::vector<std::uint64_t>& full_shape,
      const std::vector<linalg::Matrix>& factors);

  /// Zero sums for `pivot_key`.
  PivotSums Empty(std::uint64_t pivot_key) const;

  /// Row-major rank of the first k (pivot) coordinates of a sub-tensor
  /// index.
  std::uint64_t PivotKey(std::span<const std::uint32_t> sub_idx) const;

  /// Adds one stored entry of sub-tensor `side` (1 or 2), index in that
  /// sub-tensor's mode order (pivots first), into `sums`.
  void Add(int side, std::span<const std::uint32_t> sub_idx, double value,
           PivotSums* sums) const;

  /// The sums of every pivot stored in either coalesced sub-tensor, in
  /// ascending key order, entries added in storage order.
  Result<std::vector<PivotSums>> SumsOf(const SubEnsembles& subs) const;

  /// Zero-join candidate sums of two coalesced sub-tensors.
  CandidateSums CandidatesOf(const SubEnsembles& subs) const;

  /// Cells JeStitch would emit: Σ_p |S1(p)|·|S2(p)|, or with zero-join
  /// (`candidates` set) the pairs with at least one member,
  /// Σ_p E1·E2 − (E1−|S1(p)|)·(E2−|S2(p)|).
  static std::uint64_t JoinNnz(
      std::span<const PivotSums> sums,
      const std::optional<CandidateSums>& candidates);

  /// Core shape: each factor's column count.
  std::vector<std::uint64_t> CoreShape() const;

  /// core += ½ Σ_p U_piv(p,:) ⊗ [A1(p) ⊗ C2 + C1 ⊗ A2(p)] over `sums`
  /// (strictly ascending keys), C_s from `candidates` when set
  /// (zero-join), else per pivot. Each core element adds the pivots'
  /// terms in order, so summing pivots in one call or one per call gives
  /// the same bits.
  Status AddToCore(std::span<const PivotSums> sums,
                   const std::optional<CandidateSums>& candidates,
                   tensor::DenseTensor* core) const;

 private:
  struct ModeGroup {
    std::vector<std::size_t> modes;
    std::vector<const linalg::Matrix*> factors;
    /// Kronecker-index strides (first mode slowest) and their product.
    std::vector<std::uint64_t> strides;
    std::uint64_t size = 1;
  };

  SeparableCore() = default;
  static void AddKron(const ModeGroup& group, const std::uint32_t* idx,
                      std::size_t depth, double scale_a, double scale_c,
                      double* a, double* c);
  static std::vector<std::uint64_t> CoreOffsets(
      const ModeGroup& group, const tensor::DenseTensor& core);

  std::vector<std::uint64_t> full_shape_;
  ModeGroup pivot_, side_[2];
};

}  // namespace m2td::core

#endif  // M2TD_CORE_SEPARABLE_CORE_H_
