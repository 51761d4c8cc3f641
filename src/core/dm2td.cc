#include "core/dm2td.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "core/dm2td_dist.h"
#include "core/dm2td_internal.h"
#include "core/separable_core.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "tensor/matricize.h"

namespace m2td::core {

namespace {

using dm2td_internal::TensorCell;

/// Runs `body(t)` for every task t in [0, tasks) as jobs on the shared
/// pool. Each attempt first checks cancellation and the `seam` failpoint
/// ("dist.map_task" / "dist.reduce_task", the process workers' seams); a
/// failed attempt is replayed under `retry`, so `body` must be
/// idempotent. Cancellation is never retried.
Status RunTasks(std::size_t tasks, const char* seam,
                const robust::RetryPolicy& retry,
                const std::function<Status(std::size_t)>& body) {
  std::vector<Status> status(tasks);
  parallel::ParallelFor(
      0, tasks, 1,
      [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t t = begin; t < end; ++t) {
          status[t] = robust::RetryStatusCall(retry, seam, [&]() -> Status {
            M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
            M2TD_RETURN_IF_ERROR(robust::CheckFailpoint(seam));
            try {
              return body(t);
            } catch (const robust::CancelledError& e) {
              return e.ToStatus();
            } catch (const std::exception& e) {
              return Status::Internal(std::string(seam) + " " +
                                      std::to_string(t) + " threw: " +
                                      e.what());
            }
          });
        }
      },
      std::string_view(seam) == "dist.map_task" ? "map_tasks"
                                                : "reduce_tasks");
  for (const Status& s : status) M2TD_RETURN_IF_ERROR(s);
  return Status::OK();
}

/// Thread backend: each phase's map and reduce tasks run on the shared
/// pool, over the same per-group body (SumPivotGroup) the process
/// backend's reduce tasks use, and phase 3 is the same SeparableCore
/// run. Groups keep their cells' input order and pivot records stay in
/// ascending key order, so results are bit-identical at any num_workers —
/// and to the process backend.
Result<DM2tdResult> DecomposeThreadBackend(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
  const std::size_t workers = static_cast<std::size_t>(options.num_workers);

  DM2tdResult result;
  obs::ObsSpan total_span("dm2td_decompose", obs::ObsSpan::kAlwaysTime);
  total_span.Annotate("num_workers",
                      static_cast<std::int64_t>(options.num_workers));
  total_span.Annotate("backend", "thread");

  // ---------- Phase 1: sub-tensor decomposition. ----------
  obs::ObsSpan sub_span("sub_decompose", obs::ObsSpan::kAlwaysTime);
  obs::ObsSpan factor_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(
      std::vector<linalg::Matrix> factors,
      M2tdFactors(options.method, options.ranks, {}, partition, full_shape,
                  [&subs](int side, std::size_t sub_mode) {
                    return tensor::ModeGram(side == 1 ? subs.x1 : subs.x2,
                                            sub_mode);
                  }));
  result.phase1.reduce_seconds = factor_span.End();
  result.phase1.seconds = sub_span.End();

  // ---------- Phase 2: per-pivot partial sums. ----------
  obs::ObsSpan stitch_span("stitch", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(const SeparableCore sep,
                        SeparableCore::Make(partition, full_shape, factors));
  std::vector<TensorCell> cells = dm2td_internal::CollectCells(subs);

  // Map: task t keys its contiguous share of the cells by pivot; the
  // cells are then stably grouped by ascending key, so a group keeps its
  // cells' input order, as the process backend's reduce tasks see them.
  obs::ObsSpan map_span("dist_map", obs::ObsSpan::kAlwaysTime);
  std::vector<std::uint64_t> keys(cells.size());
  M2TD_RETURN_IF_ERROR(RunTasks(
      workers, "dist.map_task", options.retry, [&](std::size_t t) {
        for (std::size_t i = cells.size() * t / workers;
             i < cells.size() * (t + 1) / workers; ++i) {
          keys[i] = sep.PivotKey(cells[i].idx);
        }
        return Status::OK();
      }));
  std::vector<std::uint64_t> group_keys;
  std::vector<std::size_t> offsets;  // group g: grouped[offsets[g], [g+1])
  std::vector<TensorCell> grouped;
  grouped.reserve(cells.size());
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return keys[a] < keys[b];
  });
  for (std::size_t i : order) {
    if (grouped.empty() || keys[i] != group_keys.back()) {
      group_keys.push_back(keys[i]);
      offsets.push_back(grouped.size());
    }
    grouped.push_back(std::move(cells[i]));
  }
  offsets.push_back(grouped.size());
  result.phase2.intermediate_pairs = grouped.size();
  result.phase2.map_seconds = map_span.End();

  // Reduce: task t sums its contiguous run of pivot groups.
  obs::ObsSpan reduce_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
  std::vector<PivotSums> sums(group_keys.size());
  M2TD_RETURN_IF_ERROR(RunTasks(
      workers, "dist.reduce_task", options.retry, [&](std::size_t t) {
        for (std::size_t g = group_keys.size() * t / workers;
             g < group_keys.size() * (t + 1) / workers; ++g) {
          sums[g] = dm2td_internal::SumPivotGroup(
              sep, group_keys[g],
              std::span<const TensorCell>(grouped).subspan(
                  offsets[g], offsets[g + 1] - offsets[g]));
        }
        return Status::OK();
      }));
  result.phase2.reduce_seconds = reduce_span.End();
  std::optional<CandidateSums> candidates;
  if (options.stitch.zero_join) candidates = sep.CandidatesOf(subs);
  result.join_nnz = SeparableCore::JoinNnz(sums, candidates);
  stitch_span.Annotate("join_nnz", result.join_nnz);
  result.phase2.seconds = stitch_span.End();

  // ---------- Phase 3: the core from the pivot records, on the pool. ----
  obs::ObsSpan core_span("core_recovery", obs::ObsSpan::kAlwaysTime);
  obs::ObsSpan core_reduce_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
  tensor::DenseTensor core(sep.CoreShape());
  M2TD_RETURN_IF_ERROR(sep.AddToCore(sums, candidates, &core));
  result.phase3.intermediate_pairs = sums.size();
  result.phase3.reduce_seconds = core_reduce_span.End();
  result.phase3.seconds = core_span.End();
  result.tucker.core = std::move(core);
  result.tucker.factors = std::move(factors);
  return result;
}

}  // namespace

Result<DM2tdResult> DM2tdDecompose(const SubEnsembles& subs,
                                   const PfPartition& partition,
                                   const std::vector<std::uint64_t>&
                                       full_shape,
                                   const DM2tdOptions& options) {
  M2TD_RETURN_IF_ERROR(dm2td_internal::ValidateDm2tdArgs(
      subs, partition, full_shape, options));
  if (options.backend == DistBackend::kProcess) {
    return DM2tdDecomposeProcess(subs, partition, full_shape, options);
  }
  // Pooled kernels report cancellation by throwing through the void
  // ParallelFor channel; convert back to the Status this API promises.
  try {
    return DecomposeThreadBackend(subs, partition, full_shape, options);
  } catch (const robust::CancelledError& error) {
    return error.ToStatus();
  }
}

}  // namespace m2td::core
