#include "core/m2td.h"

#include <algorithm>
#include <optional>

#include "core/separable_core.h"
#include "linalg/svd.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "tensor/matricize.h"
#include "util/logging.h"

namespace m2td::core {

const char* M2tdMethodName(M2tdMethod method) {
  switch (method) {
    case M2tdMethod::kAvg:
      return "M2TD-AVG";
    case M2tdMethod::kConcat:
      return "M2TD-CONCAT";
    case M2tdMethod::kSelect:
      return "M2TD-SELECT";
    case M2tdMethod::kWeighted:
      return "M2TD-WEIGHTED";
  }
  return "?";
}

Result<linalg::Matrix> RowSelect(const linalg::Matrix& u1,
                                 const linalg::Matrix& u2) {
  if (u1.rows() != u2.rows() || u1.cols() != u2.cols()) {
    return Status::InvalidArgument("RowSelect requires same-shaped inputs");
  }
  linalg::Matrix out(u1.rows(), u1.cols());
  for (std::size_t i = 0; i < u1.rows(); ++i) {
    const bool take_first = u1.RowNorm(i) >= u2.RowNorm(i);
    const double* src = take_first ? u1.RowPtr(i) : u2.RowPtr(i);
    double* dst = out.RowPtr(i);
    for (std::size_t j = 0; j < u1.cols(); ++j) dst[j] = src[j];
  }
  return out;
}

Result<linalg::Matrix> RowWeightedBlend(const linalg::Matrix& u1,
                                        const linalg::Matrix& u2) {
  if (u1.rows() != u2.rows() || u1.cols() != u2.cols()) {
    return Status::InvalidArgument(
        "RowWeightedBlend requires same-shaped inputs");
  }
  linalg::Matrix out(u1.rows(), u1.cols());
  for (std::size_t i = 0; i < u1.rows(); ++i) {
    const double w1 = u1.RowNorm(i);
    const double w2 = u2.RowNorm(i);
    const double total = w1 + w2;
    if (total <= 0.0) continue;  // both rows zero: leave the row zero
    const double* r1 = u1.RowPtr(i);
    const double* r2 = u2.RowPtr(i);
    double* dst = out.RowPtr(i);
    for (std::size_t j = 0; j < u1.cols(); ++j) {
      dst[j] = (w1 * r1[j] + w2 * r2[j]) / total;
    }
  }
  return out;
}

Result<std::vector<linalg::Matrix>> M2tdFactors(
    M2tdMethod method, const std::vector<std::uint64_t>& ranks,
    const linalg::GramFactorOptions& init, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, const SubGramFn& gram_of) {
  const std::size_t num_modes = full_shape.size();
  if (partition.NumModes() != num_modes) {
    return Status::InvalidArgument("partition does not match full shape");
  }
  if (ranks.size() != num_modes) {
    return Status::InvalidArgument("one rank per original mode required");
  }
  const std::size_t k = partition.pivot_modes.size();
  auto rank_of = [&](std::size_t mode) {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(ranks[mode], full_shape[mode]));
  };
  // Factor of sub-tensor `side` along its own mode `sub_mode` (original
  // mode `mode`); side 2's sketches are offset past every original mode.
  auto sub_factor = [&](int side, std::size_t sub_mode,
                        std::size_t mode) -> Result<linalg::Matrix> {
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix gram, gram_of(side, sub_mode));
    return linalg::GramFactor(
        gram, rank_of(mode),
        init.ForMode(side == 1 ? mode : mode + num_modes));
  };

  std::vector<linalg::Matrix> factors(num_modes);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t mode = partition.pivot_modes[i];
    M2TD_TRACE_SCOPE("combine_pivot_factor");
    if (method == M2tdMethod::kConcat) {
      // Gram of the concatenated matricization [X1_(n) | X2_(n)].
      M2TD_ASSIGN_OR_RETURN(linalg::Matrix g1, gram_of(1, i));
      M2TD_ASSIGN_OR_RETURN(linalg::Matrix g2, gram_of(2, i));
      const linalg::Matrix sum = linalg::LinearCombination(1.0, g1, 1.0, g2);
      M2TD_ASSIGN_OR_RETURN(
          factors[mode],
          linalg::GramFactor(sum, rank_of(mode), init.ForMode(mode)));
      continue;
    }
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix u1, sub_factor(1, i, mode));
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix u2, sub_factor(2, i, mode));
    if (method == M2tdMethod::kAvg) {
      factors[mode] = linalg::LinearCombination(0.5, u1, 0.5, u2);
    } else if (method == M2tdMethod::kWeighted) {
      M2TD_ASSIGN_OR_RETURN(factors[mode], RowWeightedBlend(u1, u2));
    } else {
      M2TD_ASSIGN_OR_RETURN(factors[mode], RowSelect(u1, u2));
    }
  }
  for (int side = 1; side <= 2; ++side) {
    const std::vector<std::size_t>& side_modes =
        side == 1 ? partition.side1_modes : partition.side2_modes;
    for (std::size_t i = 0; i < side_modes.size(); ++i) {
      M2TD_ASSIGN_OR_RETURN(factors[side_modes[i]],
                            sub_factor(side, k + i, side_modes[i]));
    }
  }
  return factors;
}

namespace {

Result<M2tdResult> M2tdDecomposeImpl(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const M2tdOptions& options) {
  M2tdResult result;
  obs::ObsSpan total_span("m2td_decompose", obs::ObsSpan::kAlwaysTime);
  total_span.Annotate("method", M2tdMethodName(options.method));
  total_span.Annotate("x1_nnz", subs.x1.NumNonZeros());
  total_span.Annotate("x2_nnz", subs.x2.NumNonZeros());

  // --- Sub-tensor decompositions + pivot-factor combination. The phase
  // timings in M2tdTimings are the spans' own elapsed times, so the trace
  // and the Table III split always agree. ---
  obs::ObsSpan sub_span("sub_decompose", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(
      std::vector<linalg::Matrix> factors,
      M2tdFactors(options.method, options.ranks, options.init, partition,
                  full_shape, [&subs](int side, std::size_t sub_mode) {
                    return tensor::ModeGram(side == 1 ? subs.x1 : subs.x2,
                                            sub_mode);
                  }));
  result.timings.sub_decompose_seconds = sub_span.End();

  // --- JE-stitching, join-free: the per-pivot partial sums. ---
  obs::ObsSpan stitch_span("stitch", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(
      const SeparableCore sep,
      SeparableCore::Make(partition, full_shape, factors));
  M2TD_ASSIGN_OR_RETURN(const std::vector<PivotSums> sums, sep.SumsOf(subs));
  std::optional<CandidateSums> candidates;
  if (options.stitch.zero_join) candidates = sep.CandidatesOf(subs);
  result.join_nnz = SeparableCore::JoinNnz(sums, candidates);
  stitch_span.Annotate("join_nnz", result.join_nnz);
  result.timings.stitch_seconds = stitch_span.End();

  // --- Core recovery: G = J x_1 U^(1)T ... x_N U^(N)T, from the sums. ---
  obs::ObsSpan core_span("core_recovery", obs::ObsSpan::kAlwaysTime);
  tensor::DenseTensor core(sep.CoreShape());
  M2TD_RETURN_IF_ERROR(sep.AddToCore(sums, candidates, &core));
  core_span.Annotate("core_elements", core.NumElements());
  result.timings.core_seconds = core_span.End();

  result.tucker.core = std::move(core);
  result.tucker.factors = std::move(factors);
  return result;
}

}  // namespace

Result<M2tdResult> M2tdDecompose(const SubEnsembles& subs,
                                 const PfPartition& partition,
                                 const std::vector<std::uint64_t>& full_shape,
                                 const M2tdOptions& options) {
  // Pooled kernels report cancellation by throwing through the void
  // ParallelFor channel; convert back to the Status this API promises.
  try {
    return M2tdDecomposeImpl(subs, partition, full_shape, options);
  } catch (const robust::CancelledError& error) {
    return error.ToStatus();
  }
}

}  // namespace m2td::core
