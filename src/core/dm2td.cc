#include "core/dm2td.h"

#include <exception>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/dm2td_dist.h"
#include "core/dm2td_internal.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "tensor/matricize.h"

namespace m2td::core {

namespace {

using dm2td_internal::JobGeometry;
using dm2td_internal::JoinCell;
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

/// One map + reduce round over `input`. Map tasks key every record
/// (`key_of`); the records are stably grouped by ascending key
/// (StableKeyOrder: a group keeps its records' input order, as the
/// process backend's reduce tasks see them) and projected to reduce items
/// (`item_of`); reduce tasks fold contiguous runs of groups (`fold`); and
/// the outputs are gathered in canonical order. The three steps run
/// under the `dist_map` / `dist_reduce` / `dist_gather` spans, whose
/// times accumulate into `stats`.
template <typename Record, typename KeyFn, typename ItemFn, typename FoldFn>
Result<std::vector<JoinCell>> RunRound(std::vector<Record>& input,
                                       const KeyFn& key_of,
                                       const ItemFn& item_of,
                                       const FoldFn& fold,
                                       const DM2tdOptions& options,
                                       PhaseStats* stats) {
  using Item = std::invoke_result_t<const ItemFn&, Record&>;
  const std::size_t workers = static_cast<std::size_t>(options.num_workers);

  obs::ObsSpan map_span("dist_map", obs::ObsSpan::kAlwaysTime);
  std::vector<std::uint64_t> keys(input.size());
  M2TD_RETURN_IF_ERROR(RunTasks(
      workers, "dist.map_task", options.retry, [&](std::size_t t) {
        // Task t keys its contiguous share of the records.
        for (std::size_t i = input.size() * t / workers;
             i < input.size() * (t + 1) / workers; ++i) {
          keys[i] = key_of(input[i]);
        }
        return Status::OK();
      }));
  std::vector<std::uint64_t> group_keys;
  std::vector<std::size_t> offsets;  // group g: items[offsets[g], ...[g+1])
  std::vector<Item> items;
  items.reserve(input.size());
  for (std::size_t i : dm2td_internal::StableKeyOrder(keys)) {
    if (items.empty() || keys[i] != group_keys.back()) {
      group_keys.push_back(keys[i]);
      offsets.push_back(items.size());
    }
    items.push_back(item_of(input[i]));
  }
  offsets.push_back(items.size());
  stats->intermediate_pairs += items.size();
  stats->map_seconds += map_span.End();

  obs::ObsSpan reduce_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
  std::vector<std::vector<JoinCell>> outputs(workers);
  M2TD_RETURN_IF_ERROR(RunTasks(
      workers, "dist.reduce_task", options.retry, [&](std::size_t t) {
        outputs[t].clear();
        for (std::size_t g = group_keys.size() * t / workers;
             g < group_keys.size() * (t + 1) / workers; ++g) {
          fold(group_keys[g],
               std::span<const Item>(items).subspan(
                   offsets[g], offsets[g + 1] - offsets[g]),
               &outputs[t]);
        }
        return Status::OK();
      }));
  stats->reduce_seconds += reduce_span.End();

  obs::ObsSpan gather_span("dist_gather", obs::ObsSpan::kAlwaysTime);
  std::vector<JoinCell> cells;
  for (std::vector<JoinCell>& part : outputs) {
    cells.insert(cells.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  dm2td_internal::SortJoinCells(&cells);
  stats->gather_seconds += gather_span.End();
  return cells;
}

/// Thread backend: each phase's map and reduce tasks run on the shared
/// pool, over the same per-group bodies (JoinPivotGroup / ContractFiber)
/// the process backend's reduce tasks use. Groups are folded in ascending
/// key order with their records in input order, and every inter-phase
/// stream is put in canonical order (SortJoinCells), so results are
/// bit-identical at any num_workers — and to the process backend.
Result<DM2tdResult> DecomposeThreadBackend(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
  const std::size_t num_modes = full_shape.size();
  const JobGeometry geometry =
      dm2td_internal::MakeGeometry(partition, full_shape);

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

  // ---------- Phase 2: JE-stitching, grouped by pivot configuration. ----
  obs::ObsSpan stitch_span("stitch", obs::ObsSpan::kAlwaysTime);
  std::vector<TensorCell> cells = dm2td_internal::CollectCells(subs);
  // Zero-join candidate sets are global; gather them driver-side.
  std::vector<std::uint64_t> cand1, cand2;
  if (options.stitch.zero_join) {
    dm2td_internal::GatherZeroJoinCandidates(cells, geometry, &cand1, &cand2);
  }
  M2TD_ASSIGN_OR_RETURN(
      std::vector<JoinCell> join_cells,
      RunRound(
          cells,
          [&geometry](const TensorCell& cell) {
            return dm2td_internal::PivotKey(cell.idx, geometry.pivot_dims);
          },
          [](TensorCell& cell) { return std::move(cell); },
          [&](std::uint64_t key, std::span<const TensorCell> group,
              std::vector<JoinCell>* out) {
            dm2td_internal::JoinPivotGroup(key, group, geometry,
                                           options.stitch.zero_join, cand1,
                                           cand2, out);
          },
          options, &result.phase2));
  result.join_nnz = join_cells.size();
  stitch_span.Annotate("join_nnz", result.join_nnz);
  result.phase2.seconds = stitch_span.End();

  // ---------- Phase 3: one map + reduce round per mode. ----------
  obs::ObsSpan core_span("core_recovery", obs::ObsSpan::kAlwaysTime);
  std::vector<std::uint64_t> current_shape = full_shape;
  for (std::size_t n = 0; n < num_modes; ++n) {
    obs::ObsSpan ttm_span("ttm_job");
    ttm_span.Annotate("mode", static_cast<std::uint64_t>(n));
    M2TD_ASSIGN_OR_RETURN(
        join_cells,
        RunRound(
            join_cells,
            [&, n](const JoinCell& cell) {
              return dm2td_internal::Phase3FiberKey(cell, n, current_shape);
            },
            [n](JoinCell& cell) {
              return std::pair<std::uint32_t, double>(cell.idx[n],
                                                      cell.value);
            },
            [&, n](std::uint64_t key,
                   std::span<const std::pair<std::uint32_t, double>> fiber,
                   std::vector<JoinCell>* out) {
              dm2td_internal::ContractFiber(key, fiber, factors[n], n,
                                            current_shape, out);
            },
            options, &result.phase3));
    current_shape[n] = factors[n].cols();
  }

  // Materialize the core.
  tensor::DenseTensor core(current_shape);
  for (const JoinCell& cell : join_cells) {
    core.at(cell.idx) += cell.value;
  }
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
