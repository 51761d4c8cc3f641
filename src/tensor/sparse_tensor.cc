#include "tensor/sparse_tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "obs/trace.h"
#include "tensor/csf.h"
#include "util/string_util.h"

namespace m2td::tensor {

SparseTensor::SparseTensor(std::vector<std::uint64_t> shape)
    : shape_(std::move(shape)),
      indices_(shape_.size()),
      csf_cache_(std::make_shared<CsfCache>(shape_.size())) {
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    M2TD_CHECK(shape_[m] > 0) << "zero-length mode " << m;
    M2TD_CHECK(shape_[m] <= (1ULL << 32)) << "mode too long for uint32 index";
  }
}

double& SparseTensor::MutableValue(std::uint64_t entry) {
  // Detach (don't clear) the shared cache: copies made before this write
  // legitimately keep the old indexes for the old contents.
  if (csf_cache_ != nullptr) {
    csf_cache_ = std::make_shared<CsfCache>(shape_.size());
  }
  return values_[entry];
}

const CsfModeIndex& SparseTensor::Csf(std::size_t mode) const {
  M2TD_CHECK(sorted_) << "Csf requires SortAndCoalesce first";
  M2TD_CHECK(csf_cache_ != nullptr) << "Csf on a default-constructed tensor";
  return csf_cache_->Get(*this, mode);
}

std::uint64_t SparseTensor::LogicalSize() const {
  std::uint64_t total = 1;
  for (std::uint64_t d : shape_) {
    if (d != 0 && total > ~0ULL / d) return ~0ULL;  // saturate
    total *= d;
  }
  return total;
}

double SparseTensor::Density() const {
  const std::uint64_t logical = LogicalSize();
  if (logical == 0) return 0.0;
  return static_cast<double>(NumNonZeros()) / static_cast<double>(logical);
}

void SparseTensor::Reserve(std::uint64_t nnz) {
  for (auto& idx : indices_) idx.reserve(nnz);
  values_.reserve(nnz);
}

void SparseTensor::AppendEntry(const std::vector<std::uint32_t>& indices,
                               double value) {
  M2TD_CHECK(indices.size() == shape_.size())
      << "entry arity " << indices.size() << " != tensor modes "
      << shape_.size();
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    M2TD_CHECK(indices[m] < shape_[m])
        << "index " << indices[m] << " out of range for mode " << m
        << " of shape " << ShapeToString(shape_);
    indices_[m].push_back(indices[m]);
  }
  values_.push_back(value);
  sorted_ = false;
}

namespace {

std::string CoordinateString(const std::vector<std::uint32_t>& indices) {
  std::string out = "(";
  for (std::size_t m = 0; m < indices.size(); ++m) {
    if (m > 0) out += ", ";
    out += std::to_string(indices[m]);
  }
  out += ")";
  return out;
}

}  // namespace

Status SparseTensor::AppendEntryChecked(
    const std::vector<std::uint32_t>& indices, double value) {
  if (indices.size() != shape_.size()) {
    return Status::InvalidArgument(
        "entry arity " + std::to_string(indices.size()) +
        " != tensor modes " + std::to_string(shape_.size()));
  }
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    if (indices[m] >= shape_[m]) {
      return Status::InvalidArgument(
          "index " + std::to_string(indices[m]) + " out of range for mode " +
          std::to_string(m) + " at coordinate " + CoordinateString(indices));
    }
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        std::string(std::isnan(value) ? "NaN" : "infinite") +
        " value at coordinate " + CoordinateString(indices));
  }
  AppendEntry(indices, value);
  return Status::OK();
}

Status SparseTensor::CheckFinite() const {
  std::vector<std::uint32_t> coord(shape_.size());
  for (std::uint64_t e = 0; e < NumNonZeros(); ++e) {
    if (std::isfinite(values_[e])) continue;
    for (std::size_t m = 0; m < shape_.size(); ++m) coord[m] = indices_[m][e];
    return Status::InvalidArgument(
        std::string(std::isnan(values_[e]) ? "NaN" : "infinite") +
        " value at coordinate " + CoordinateString(coord));
  }
  return Status::OK();
}

void SparseTensor::SortAndCoalesce(CoalescePolicy policy) {
  // Contents are (potentially) about to change: detach from the shared
  // CSF cache so stale fiber indexes can never be served afterwards.
  csf_cache_ = std::make_shared<CsfCache>(shape_.size());
  obs::ObsSpan span("sort_coalesce");
  const std::uint64_t n = values_.size();
  const std::size_t modes = shape_.size();
  span.Annotate("nnz", n);
  auto lex_less = [this, modes](std::uint64_t a, std::uint64_t b) {
    for (std::size_t m = 0; m < modes; ++m) {
      if (indices_[m][a] != indices_[m][b]) {
        return indices_[m][a] < indices_[m][b];
      }
    }
    return false;
  };
  // Strictly increasing input (e.g. a pivot-first JE-stitch join) is
  // already canonical: nothing to reorder or merge.
  std::uint64_t ascending = 1;
  while (ascending < n && lex_less(ascending - 1, ascending)) ++ascending;
  const bool presorted = ascending >= n;
  span.Annotate("presorted", presorted ? "true" : "false");
  sorted_ = true;
  if (presorted) return;

  std::vector<std::size_t> all_modes(modes);
  std::iota(all_modes.begin(), all_modes.end(), 0);
  const std::vector<std::uint64_t> order = StableLexOrder(*this, all_modes);

  std::vector<std::vector<std::uint32_t>> new_indices(modes);
  std::vector<double> new_values;
  std::vector<std::uint64_t> run_counts;
  for (auto& idx : new_indices) idx.reserve(n);
  new_values.reserve(n);
  run_counts.reserve(n);

  // The sort is stable, so each run of equal coordinates lists its
  // duplicates in append order and the merge is their left fold.
  for (std::uint64_t pos = 0; pos < n; ++pos) {
    const std::uint64_t e = order[pos];
    if (pos > 0 && !lex_less(order[pos - 1], e)) {
      new_values.back() += values_[e];
      ++run_counts.back();
    } else {
      for (std::size_t m = 0; m < modes; ++m) {
        new_indices[m].push_back(indices_[m][e]);
      }
      new_values.push_back(values_[e]);
      run_counts.push_back(1);
    }
  }

  if (policy == CoalescePolicy::kMean) {
    for (std::size_t i = 0; i < new_values.size(); ++i) {
      new_values[i] /= static_cast<double>(run_counts[i]);
    }
  }

  indices_ = std::move(new_indices);
  values_ = std::move(new_values);
}

std::optional<double> SparseTensor::Find(
    const std::vector<std::uint32_t>& indices) const {
  M2TD_CHECK(sorted_) << "Find requires SortAndCoalesce first";
  M2TD_CHECK(indices.size() == shape_.size());
  const std::size_t modes = shape_.size();
  // Binary search over the lexicographic order.
  std::uint64_t lo = 0;
  std::uint64_t hi = values_.size();
  auto compare = [this, modes, &indices](std::uint64_t e) {
    // <0 if entry < target, 0 if equal, >0 if entry > target.
    for (std::size_t m = 0; m < modes; ++m) {
      if (indices_[m][e] < indices[m]) return -1;
      if (indices_[m][e] > indices[m]) return 1;
    }
    return 0;
  };
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const int c = compare(mid);
    if (c == 0) return values_[mid];
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

DenseTensor SparseTensor::ToDense() const {
  DenseTensor dense(shape_);
  const std::size_t modes = shape_.size();
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t e = 0; e < values_.size(); ++e) {
    for (std::size_t m = 0; m < modes; ++m) idx[m] = indices_[m][e];
    dense.at(idx) += values_[e];
  }
  return dense;
}

SparseTensor SparseTensor::FromDense(const DenseTensor& dense,
                                     double zero_tol) {
  SparseTensor sparse(dense.shape());
  const std::size_t modes = dense.num_modes();
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t linear = 0; linear < dense.NumElements(); ++linear) {
    const double v = dense.flat(linear);
    if (std::fabs(v) <= zero_tol) continue;
    std::uint64_t rest = linear;
    for (std::size_t m = 0; m < modes; ++m) {
      idx[m] = static_cast<std::uint32_t>(rest / dense.Stride(m));
      rest %= dense.Stride(m);
    }
    sparse.AppendEntry(idx, v);
  }
  sparse.sorted_ = true;  // dense scan order is lexicographic and duplicate-free
  return sparse;
}

double SparseTensor::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return std::sqrt(sum);
}

Result<SparseTensor> SparseTensor::SliceMode(std::size_t mode,
                                             std::uint32_t index) const {
  if (mode >= shape_.size()) {
    return Status::InvalidArgument("SliceMode: mode out of range");
  }
  if (shape_.size() < 2) {
    return Status::InvalidArgument("SliceMode needs at least two modes");
  }
  if (index >= shape_[mode]) {
    return Status::OutOfRange("SliceMode: index outside the mode");
  }
  std::vector<std::uint64_t> slice_shape;
  slice_shape.reserve(shape_.size() - 1);
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    if (m != mode) slice_shape.push_back(shape_[m]);
  }
  SparseTensor slice(slice_shape);
  std::vector<std::uint32_t> idx(slice_shape.size());
  for (std::uint64_t e = 0; e < values_.size(); ++e) {
    if (indices_[mode][e] != index) continue;
    std::size_t cursor = 0;
    for (std::size_t m = 0; m < shape_.size(); ++m) {
      if (m != mode) idx[cursor++] = indices_[m][e];
    }
    slice.AppendEntry(idx, values_[e]);
  }
  // Lexicographic order of a sorted parent restricted to one slice stays
  // lexicographic after dropping the fixed mode... only when `mode` is not
  // reordered past a differing mode — which holds because all remaining
  // comparisons are on the same mode sequence. Preserve the flag.
  slice.sorted_ = sorted_;
  return slice;
}

std::uint64_t SparseTensor::MatricizationColumn(std::size_t mode,
                                                std::uint64_t entry) const {
  std::uint64_t column = 0;
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    if (m == mode) continue;
    column = column * shape_[m] + indices_[m][entry];
  }
  return column;
}

std::vector<std::uint64_t> StableLexOrder(
    const SparseTensor& x, const std::vector<std::size_t>& modes) {
  constexpr unsigned kDigitBits = 16;
  constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
  const std::size_t n = static_cast<std::size_t>(x.NumNonZeros());
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint64_t> scratch(n);
  std::vector<std::uint64_t> starts;
  // Least significant digit of the last mode first; stability carries
  // each pass's order into the ties of the next.
  for (std::size_t i = modes.size(); i-- > 0;) {
    const std::vector<std::uint32_t>& keys = x.IndexArray(modes[i]);
    const std::uint64_t max_key = x.dim(modes[i]) - 1;
    for (unsigned shift = 0; shift == 0 || (max_key >> shift) != 0;
         shift += kDigitBits) {
      const std::uint64_t digits =
          std::min<std::uint64_t>((max_key >> shift) + 1, kDigitMask + 1);
      starts.assign(digits + 1, 0);
      // Digit counts do not depend on the current order.
      for (std::uint32_t key : keys) {
        ++starts[((key >> shift) & kDigitMask) + 1];
      }
      // One digit holds every entry: the stable pass would be the identity.
      if (std::find(starts.begin(), starts.end(), n) != starts.end()) continue;
      std::partial_sum(starts.begin(), starts.end(), starts.begin());
      for (std::uint64_t e : order) {
        scratch[starts[(keys[e] >> shift) & kDigitMask]++] = e;
      }
      order.swap(scratch);
    }
  }
  return order;
}

}  // namespace m2td::tensor
