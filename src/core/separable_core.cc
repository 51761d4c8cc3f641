#include "core/separable_core.h"

#include <algorithm>
#include <map>
#include <set>

#include "parallel/parallel_for.h"

namespace m2td::core {

Result<SeparableCore> SeparableCore::Make(
    const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const std::vector<linalg::Matrix>& factors) {
  const std::size_t num_modes = full_shape.size();
  if (partition.NumModes() != num_modes || factors.size() != num_modes) {
    return Status::InvalidArgument(
        "partition and factors do not match the full shape");
  }
  SeparableCore sep;
  sep.full_shape_ = full_shape;
  const std::vector<std::size_t>* groups[] = {
      &partition.pivot_modes, &partition.side1_modes, &partition.side2_modes};
  ModeGroup* targets[] = {&sep.pivot_, &sep.side_[0], &sep.side_[1]};
  for (int g = 0; g < 3; ++g) {
    ModeGroup& group = *targets[g];
    group.modes = *groups[g];
    for (std::size_t mode : group.modes) {
      if (mode >= num_modes || factors[mode].rows() != full_shape[mode]) {
        return Status::InvalidArgument(
            "factor rows do not match the full shape");
      }
      group.factors.push_back(&factors[mode]);
    }
    group.strides.assign(group.modes.size(), 1);
    for (std::size_t d = group.modes.size(); d-- > 0;) {
      group.strides[d] = group.size;
      group.size *= group.factors[d]->cols();
    }
  }
  return sep;
}

PivotSums SeparableCore::Empty(std::uint64_t pivot_key) const {
  PivotSums sums;
  sums.pivot_key = pivot_key;
  sums.a1.assign(side_[0].size, 0.0);
  sums.c1.assign(side_[0].size, 0.0);
  sums.a2.assign(side_[1].size, 0.0);
  sums.c2.assign(side_[1].size, 0.0);
  return sums;
}

std::uint64_t SeparableCore::PivotKey(
    std::span<const std::uint32_t> sub_idx) const {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < pivot_.modes.size(); ++i) {
    key = key * full_shape_[pivot_.modes[i]] + sub_idx[i];
  }
  return key;
}

void SeparableCore::AddKron(const ModeGroup& group, const std::uint32_t* idx,
                            std::size_t depth, double scale_a,
                            double scale_c, double* a, double* c) {
  const std::size_t last = group.factors.size();
  if (last == 0) {
    *a += scale_a;
    if (c != nullptr) *c += scale_c;
    return;
  }
  const linalg::Matrix& factor = *group.factors[depth];
  const double* row = factor.RowPtr(idx[depth]);
  const std::size_t rank = factor.cols();
  if (depth + 1 == last) {
    for (std::size_t j = 0; j < rank; ++j) {
      a[j] += scale_a * row[j];
      if (c != nullptr) c[j] += scale_c * row[j];
    }
    return;
  }
  const std::uint64_t stride = group.strides[depth];
  for (std::size_t j = 0; j < rank; ++j) {
    AddKron(group, idx, depth + 1, scale_a * row[j], scale_c * row[j],
            a + j * stride, c == nullptr ? nullptr : c + j * stride);
  }
}

void SeparableCore::Add(int side, std::span<const std::uint32_t> sub_idx,
                        double value, PivotSums* sums) const {
  const std::uint32_t* free_idx = sub_idx.data() + pivot_.modes.size();
  if (side == 1) {
    AddKron(side_[0], free_idx, 0, value, 1.0, sums->a1.data(),
            sums->c1.data());
    ++sums->count1;
  } else {
    AddKron(side_[1], free_idx, 0, value, 1.0, sums->a2.data(),
            sums->c2.data());
    ++sums->count2;
  }
}

Result<std::vector<PivotSums>> SeparableCore::SumsOf(
    const SubEnsembles& subs) const {
  const std::size_t k = pivot_.modes.size();
  std::map<std::uint64_t, PivotSums> by_key;
  for (int side = 1; side <= 2; ++side) {
    const tensor::SparseTensor& x = side == 1 ? subs.x1 : subs.x2;
    const ModeGroup& group = side_[side - 1];
    if (x.num_modes() != k + group.modes.size()) {
      return Status::InvalidArgument(
          "sub-tensor mode counts do not match the partition");
    }
    for (std::size_t m = 0; m < x.num_modes(); ++m) {
      const std::size_t mode = m < k ? pivot_.modes[m] : group.modes[m - k];
      if (x.dim(m) != full_shape_[mode]) {
        return Status::InvalidArgument(
            "sub-tensor shape does not match the full shape");
      }
    }
    if (!x.IsSorted()) {
      return Status::InvalidArgument(
          "the stitch requires coalesced sub-tensors");
    }
    std::vector<std::uint32_t> idx(x.num_modes());
    for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
      for (std::size_t m = 0; m < idx.size(); ++m) idx[m] = x.Index(m, e);
      const std::uint64_t key = PivotKey(idx);
      auto [it, fresh] = by_key.try_emplace(key);
      if (fresh) it->second = Empty(key);
      Add(side, idx, x.Value(e), &it->second);
    }
  }
  std::vector<PivotSums> sums;
  sums.reserve(by_key.size());
  for (auto& [key, s] : by_key) sums.push_back(std::move(s));
  return sums;
}

CandidateSums SeparableCore::CandidatesOf(const SubEnsembles& subs) const {
  const std::size_t k = pivot_.modes.size();
  CandidateSums candidates;
  for (int s = 0; s < 2; ++s) {
    const tensor::SparseTensor& x = s == 0 ? subs.x1 : subs.x2;
    const ModeGroup& group = side_[s];
    // Distinct free configurations, in ascending (lexicographic) order.
    std::set<std::vector<std::uint32_t>> configs;
    std::vector<std::uint32_t> free_idx(group.modes.size());
    for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
      for (std::size_t d = 0; d < free_idx.size(); ++d) {
        free_idx[d] = x.Index(k + d, e);
      }
      configs.insert(free_idx);
    }
    std::vector<double> c(group.size, 0.0);
    for (const std::vector<std::uint32_t>& config : configs) {
      AddKron(group, config.data(), 0, 1.0, 0.0, c.data(), nullptr);
    }
    (s == 0 ? candidates.count1 : candidates.count2) = configs.size();
    (s == 0 ? candidates.c1 : candidates.c2) = std::move(c);
  }
  return candidates;
}

std::uint64_t SeparableCore::JoinNnz(
    std::span<const PivotSums> sums,
    const std::optional<CandidateSums>& candidates) {
  std::uint64_t nnz = 0;
  for (const PivotSums& s : sums) {
    if (!candidates) {
      nnz += s.count1 * s.count2;
    } else {
      const std::uint64_t e1 = candidates->count1, e2 = candidates->count2;
      nnz += e1 * e2 - (e1 - s.count1) * (e2 - s.count2);
    }
  }
  return nnz;
}

std::vector<std::uint64_t> SeparableCore::CoreShape() const {
  std::vector<std::uint64_t> shape(full_shape_.size());
  for (const ModeGroup* group : {&pivot_, &side_[0], &side_[1]}) {
    for (std::size_t d = 0; d < group->modes.size(); ++d) {
      shape[group->modes[d]] = group->factors[d]->cols();
    }
  }
  return shape;
}

std::vector<std::uint64_t> SeparableCore::CoreOffsets(
    const ModeGroup& group, const tensor::DenseTensor& core) {
  std::vector<std::uint64_t> offsets(group.size, 0);
  for (std::uint64_t i = 0; i < group.size; ++i) {
    for (std::size_t d = 0; d < group.modes.size(); ++d) {
      offsets[i] += (i / group.strides[d]) % group.factors[d]->cols() *
                    core.Stride(group.modes[d]);
    }
  }
  return offsets;
}

Status SeparableCore::AddToCore(
    std::span<const PivotSums> sums,
    const std::optional<CandidateSums>& candidates,
    tensor::DenseTensor* core) const {
  if (core->shape() != CoreShape()) {
    return Status::InvalidArgument("core shape does not match the factors");
  }
  const std::uint64_t rp = pivot_.size, r1 = side_[0].size,
                      r2 = side_[1].size;
  if (candidates &&
      (candidates->c1.size() != r1 || candidates->c2.size() != r2)) {
    return Status::InvalidArgument(
        "candidate sums do not match the side ranks");
  }
  std::uint64_t num_pivots = 1;
  for (std::size_t mode : pivot_.modes) num_pivots *= full_shape_[mode];

  // The pivots that contribute, and ½·U_piv(p,:) for each (scaling by ½
  // is exact, so it commutes with the sums bit for bit).
  std::vector<const PivotSums*> live;
  std::vector<double> half_upiv;
  std::vector<std::uint32_t> pivot_idx(pivot_.modes.size());
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const PivotSums& s = sums[i];
    if (s.a1.size() != r1 || s.c1.size() != r1 || s.a2.size() != r2 ||
        s.c2.size() != r2 || s.pivot_key >= num_pivots ||
        (i > 0 && s.pivot_key <= sums[i - 1].pivot_key)) {
      return Status::InvalidArgument(
          "pivot sums must match the side ranks, with ascending pivot "
          "keys");
    }
    if (!candidates && (s.count1 == 0 || s.count2 == 0)) continue;
    live.push_back(&s);
    std::uint64_t key = s.pivot_key;
    for (std::size_t d = pivot_idx.size(); d-- > 0;) {
      pivot_idx[d] =
          static_cast<std::uint32_t>(key % full_shape_[pivot_.modes[d]]);
      key /= full_shape_[pivot_.modes[d]];
    }
    half_upiv.resize(half_upiv.size() + rp, 0.0);
    AddKron(pivot_, pivot_idx.data(), 0, 0.5, 0.0,
            half_upiv.data() + half_upiv.size() - rp, nullptr);
  }

  const std::vector<std::uint64_t> off_p = CoreOffsets(pivot_, *core);
  const std::vector<std::uint64_t> off_1 = CoreOffsets(side_[0], *core);
  const std::vector<std::uint64_t> off_2 = CoreOffsets(side_[1], *core);
  double* g = core->mutable_data().data();
  // Each (pivot rank, side-1 rank) pair owns a disjoint set of core
  // elements and adds every pivot's term to them in ascending key order.
  const std::uint64_t work = std::max<std::uint64_t>(1, live.size() * r2);
  parallel::ParallelFor(
      0, rp * r1, std::max<std::uint64_t>(1, 16384 / work),
      [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t ab = begin; ab < end; ++ab) {
          const std::uint64_t a = ab / r1, i = ab % r1;
          double* out = g + off_p[a] + off_1[i];
          for (std::size_t q = 0; q < live.size(); ++q) {
            const PivotSums& s = *live[q];
            const double h = half_upiv[q * rp + a];
            const double x = h * s.a1[i];
            const double y = h * (candidates ? candidates->c1[i] : s.c1[i]);
            const double* c2 =
                candidates ? candidates->c2.data() : s.c2.data();
            const double* a2 = s.a2.data();
            for (std::uint64_t c = 0; c < r2; ++c) {
              out[off_2[c]] += x * c2[c] + y * a2[c];
            }
          }
        }
      },
      "separable_core");
  return Status::OK();
}

}  // namespace m2td::core
