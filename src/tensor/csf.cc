#include "tensor/csf.h"

#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/sparse_tensor.h"
#include "util/logging.h"
#include "util/timer.h"

namespace m2td::tensor {

CsfModeIndex CsfModeIndex::Build(const SparseTensor& x, std::size_t mode) {
  M2TD_CHECK(mode < x.num_modes()) << "CSF mode out of range";
  M2TD_CHECK(x.IsSorted()) << "CSF requires a coalesced tensor";
  obs::ObsSpan span("csf_build");
  span.Annotate("mode", static_cast<std::uint64_t>(mode));
  span.Annotate("nnz", x.NumNonZeros());
  Timer timer;

  CsfModeIndex out;
  out.mode_ = mode;
  const std::size_t modes = x.num_modes();
  std::vector<std::size_t> other_modes;
  for (std::size_t m = 0; m < modes; ++m) {
    if (m == mode) continue;
    other_modes.push_back(m);
    out.other_dims_.push_back(x.dim(m));
  }

  const std::uint64_t nnz = x.NumNonZeros();
  const std::size_t n = static_cast<std::size_t>(nnz);
  // Fiber order is (column, leaf), and column order is lexicographic
  // order over the other modes. A stable sort on just those modes,
  // starting from the stored lexicographic order, leaves equal-column
  // entries in ascending leaf order. For the last mode the stored order
  // already is fiber order, so the sort is skipped.
  const std::vector<std::uint32_t>& leaf = x.IndexArray(mode);
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (mode + 1 != modes) perm = StableLexOrder(x, other_modes);

  out.leaf_coords_.resize(n);
  out.values_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t e = static_cast<std::size_t>(perm[p]);
    out.leaf_coords_[p] = leaf[e];
    out.values_[p] = x.Value(e);
    const std::uint64_t column = x.MatricizationColumn(mode, e);
    if (out.fiber_columns_.empty() || out.fiber_columns_.back() != column) {
      out.fiber_offsets_.push_back(static_cast<std::uint64_t>(p));
      out.fiber_columns_.push_back(column);
    }
  }
  // The loop pushed each fiber's *begin*; close with the total entry
  // count so fiber f spans [offsets[f], offsets[f+1]). An empty tensor
  // yields offsets == {0}.
  out.fiber_offsets_.push_back(nnz);

  span.Annotate("fibers", out.num_fibers());
  const double seconds = timer.ElapsedSeconds();
  static obs::Counter& builds = obs::GetCounter("tensor.csf.builds");
  static obs::Counter& build_us = obs::GetCounter("tensor.csf.build_us");
  builds.Increment();
  build_us.Add(static_cast<std::uint64_t>(seconds * 1e6));
  obs::GetGauge("tensor.csf.build_seconds")
      .Set(static_cast<double>(build_us.value()) * 1e-6);
  return out;
}

void CsfModeIndex::DecodeColumn(std::uint64_t column,
                                std::uint32_t* coords) const {
  for (std::size_t m = other_dims_.size(); m-- > 0;) {
    coords[m] = static_cast<std::uint32_t>(column % other_dims_[m]);
    column /= other_dims_[m];
  }
}

CsfCache::CsfCache(std::size_t num_modes)
    : num_modes_(num_modes), slots_(new Slot[num_modes == 0 ? 1 : num_modes]) {}

const CsfModeIndex& CsfCache::Get(const SparseTensor& x, std::size_t mode) {
  M2TD_CHECK(mode < num_modes_) << "CSF cache mode out of range";
  Slot& slot = slots_[mode];
  std::call_once(slot.once,
                 [&] { slot.index.emplace(CsfModeIndex::Build(x, mode)); });
  static obs::Counter& hits = obs::GetCounter("tensor.csf.reuses");
  hits.Increment();
  return *slot.index;
}

}  // namespace m2td::tensor
