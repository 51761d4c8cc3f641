#include "core/ooc_m2td.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "core/separable_core.h"
#include "io/out_of_core.h"
#include "io/tensor_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/durable.h"
#include "robust/failpoint.h"
#include "util/timer.h"

namespace m2td::core {

namespace {

/// Whitespace-free token identifying the run configuration; a checkpoint
/// journal written under a different configuration is rejected at Open().
std::string OocFingerprint(const PfPartition& partition,
                           const std::vector<std::uint64_t>& full_shape,
                           const M2tdOptions& options) {
  std::ostringstream fp;
  fp << "ooc-v1-m" << static_cast<int>(options.method) << "-s";
  for (std::uint64_t d : full_shape) fp << "_" << d;
  fp << "-r";
  for (std::uint64_t r : options.ranks) fp << "_" << r;
  fp << "-p";
  for (std::size_t m : partition.pivot_modes) fp << "_" << m;
  // A sketched factor phase is a different run; never resume across it.
  if (options.init.method == linalg::GramFactorMethod::kRandomized) {
    const linalg::RandomizedSvdOptions& k = options.init.sketch;
    fp << "-rand_" << k.seed << "_" << k.oversampling << "_"
       << k.power_iterations;
  }
  return fp.str();
}

/// Reads the slab of `store` with pivot coordinates `pivot_index` (the
/// store's first k modes) and any free coordinates.
Result<tensor::SparseTensor> ReadPivotSlab(
    const io::ChunkStore& store, const std::vector<std::uint32_t>&
        pivot_index, std::size_t k) {
  std::vector<std::uint64_t> lo(store.shape().size(), 0);
  std::vector<std::uint64_t> hi = store.shape();
  for (std::size_t i = 0; i < k; ++i) {
    lo[i] = pivot_index[i];
    hi[i] = pivot_index[i] + 1;
  }
  return store.ReadRegion(lo, hi);
}

Result<M2tdResult> M2tdDecomposeFromStoresImpl(
    const io::ChunkStore& store1, const io::ChunkStore& store2,
    const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, const M2tdOptions& options,
    const OocCheckpointOptions& checkpoint) {
  const std::size_t num_modes = full_shape.size();
  if (partition.NumModes() != num_modes) {
    return Status::InvalidArgument("partition does not match full shape");
  }
  if (options.ranks.size() != num_modes) {
    return Status::InvalidArgument("one rank per original mode required");
  }
  if (options.stitch.zero_join) {
    return Status::Unimplemented(
        "zero-join needs globally consistent candidate sets; use the "
        "in-memory M2tdDecompose");
  }
  const std::size_t k = partition.pivot_modes.size();
  // Validate the stores' shapes against the partition.
  auto expected_shape = [&](int side) {
    std::vector<std::uint64_t> shape;
    for (std::size_t m : partition.SubTensorModes(side)) {
      shape.push_back(full_shape[m]);
    }
    return shape;
  };
  if (store1.shape() != expected_shape(1) ||
      store2.shape() != expected_shape(2)) {
    return Status::InvalidArgument(
        "store shapes do not match the partition's sub-tensor layout");
  }

  M2tdResult result;
  obs::ObsSpan total_span("ooc_m2td_decompose", obs::ObsSpan::kAlwaysTime);
  obs::ObsSpan sub_span("sub_decompose", obs::ObsSpan::kAlwaysTime);

  // --- Factor matrices from streamed Grams. ---
  M2TD_ASSIGN_OR_RETURN(
      std::vector<linalg::Matrix> factors,
      M2tdFactors(options.method, options.ranks, options.init, partition,
                  full_shape,
                  [&store1, &store2](int side, std::size_t sub_mode) {
                    return io::ModeGramFromStore(side == 1 ? store1 : store2,
                                                 sub_mode);
                  }));
  result.timings.sub_decompose_seconds = sub_span.End();

  // --- Core accumulated pivot-slab by pivot-slab. ---
  M2TD_ASSIGN_OR_RETURN(const SeparableCore sep,
                        SeparableCore::Make(partition, full_shape, factors));
  tensor::DenseTensor core(sep.CoreShape());

  std::vector<std::uint64_t> pivot_dims;
  for (std::size_t m : partition.pivot_modes) {
    pivot_dims.push_back(full_shape[m]);
  }
  std::uint64_t pivot_total = 1;
  for (std::uint64_t d : pivot_dims) pivot_total *= d;

  // Checkpointing: snapshot the partial core every few slabs; on resume,
  // reload the newest snapshot and skip the slabs it already covers. The
  // core is accumulated in fixed prefix order and the snapshot text format
  // round-trips doubles exactly, so a resumed run's result is bit-identical
  // to an uninterrupted one.
  std::optional<robust::CheckpointJournal> journal;
  std::uint64_t start_linear = 0;
  std::uint64_t snapshot_count = 0;
  if (!checkpoint.checkpoint_dir.empty()) {
    M2TD_ASSIGN_OR_RETURN(
        robust::CheckpointJournal opened,
        robust::CheckpointJournal::Open(
            checkpoint.checkpoint_dir,
            OocFingerprint(partition, full_shape, options),
            checkpoint.resume));
    journal = std::move(opened);
    if (journal->Contains("ooc.core_snapshot")) {
      std::istringstream value(journal->ValueOf("ooc.core_snapshot"));
      std::uint64_t snap = 0, next_linear = 0, join_nnz = 0;
      if (!(value >> snap >> next_linear >> join_nnz) ||
          next_linear > pivot_total) {
        return Status::DataLoss("malformed ooc.core_snapshot mark '" +
                                journal->ValueOf("ooc.core_snapshot") + "'");
      }
      M2TD_ASSIGN_OR_RETURN(
          tensor::DenseTensor saved,
          io::LoadDenseText(journal->ArtifactPath(
              "core_" + std::to_string(snap) + ".txt")));
      if (saved.shape() != core.shape()) {
        return Status::DataLoss(
            "checkpointed core shape does not match this run");
      }
      core = std::move(saved);
      start_linear = next_linear;
      result.join_nnz = join_nnz;
      snapshot_count = snap + 1;
      obs::GetCounter("robust.ooc_resumes").Add(1);
    }
  }
  auto snapshot_core = [&](std::uint64_t next_linear) -> Status {
    // Artifact first, mark second: the mark's presence implies a complete
    // snapshot. Per-snapshot filenames keep a crash between the two steps
    // harmless (the journal's index stays authoritative).
    const std::string name = "core_" + std::to_string(snapshot_count) +
                             ".txt";
    M2TD_RETURN_IF_ERROR(robust::AtomicWriteFile(
        journal->ArtifactPath(name),
        [&](const std::string& tmp) { return io::SaveDenseText(core, tmp); }));
    M2TD_RETURN_IF_ERROR(journal->Mark(
        "ooc.core_snapshot",
        std::to_string(snapshot_count) + " " + std::to_string(next_linear) +
            " " + std::to_string(result.join_nnz)));
    ++snapshot_count;
    obs::GetCounter("robust.core_snapshots").Add(1);
    return Status::OK();
  };

  // The stitch and core phases interleave slab by slab; accumulate each
  // phase's share across the loop with stopped timers.
  Timer stitch_timer;
  stitch_timer.Stop();
  Timer core_timer;
  core_timer.Stop();
  std::vector<std::uint32_t> pivot_index(k);
  for (std::uint64_t linear = start_linear; linear < pivot_total; ++linear) {
    std::uint64_t rest = linear;
    for (std::size_t i = k; i-- > 0;) {
      pivot_index[i] = static_cast<std::uint32_t>(rest % pivot_dims[i]);
      rest /= pivot_dims[i];
    }
    obs::ObsSpan slab_span("pivot_slab");
    slab_span.Annotate("pivot_linear", linear);
    // The slab body stages its join_nnz contribution locally and only
    // commits into `result` after the slab fully completes: a mid-slab
    // cancellation (Status from a check, or CancelledError out of a
    // pooled kernel) must leave `result`/`core` exactly as of the last
    // completed slab so the flushed checkpoint resumes bit-identically.
    std::uint64_t slab_join_nnz = 0;
    Status slab_status = Status::OK();
    try {
      slab_status = [&]() -> Status {
        M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
        M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("ooc.slab"));
        stitch_timer.Resume();
        SubEnsembles slab_subs;
        M2TD_ASSIGN_OR_RETURN(slab_subs.x1,
                              ReadPivotSlab(store1, pivot_index, k));
        M2TD_ASSIGN_OR_RETURN(slab_subs.x2,
                              ReadPivotSlab(store2, pivot_index, k));
        M2TD_ASSIGN_OR_RETURN(const std::vector<PivotSums> sums,
                              sep.SumsOf(slab_subs));
        slab_join_nnz = SeparableCore::JoinNnz(sums, std::nullopt);
        slab_span.Annotate("join_nnz", slab_join_nnz);
        stitch_timer.Stop();

        core_timer.Resume();
        if (slab_join_nnz > 0) {
          // Add into a copy, committed only once the slab's term is
          // complete: a cancelled pooled add must not leave `core` half
          // updated.
          tensor::DenseTensor next = core;
          M2TD_RETURN_IF_ERROR(sep.AddToCore(sums, std::nullopt, &next));
          core = std::move(next);
        }
        core_timer.Stop();
        return Status::OK();
      }();
    } catch (const robust::CancelledError& error) {
      slab_status = error.ToStatus();
    }
    if (robust::IsCancellation(slab_status)) {
      stitch_timer.Stop();
      core_timer.Stop();
      // Graceful drain: flush a snapshot covering every *completed* slab
      // before surfacing the cancellation, so --resume picks up at
      // exactly this slab and the final core stays bit-identical.
      if (journal) {
        M2TD_RETURN_IF_ERROR(snapshot_core(linear));
      }
      return slab_status;
    }
    M2TD_RETURN_IF_ERROR(slab_status);
    result.join_nnz += slab_join_nnz;
    if (journal && checkpoint.checkpoint_every > 0 &&
        (linear + 1) % checkpoint.checkpoint_every == 0 &&
        linear + 1 < pivot_total) {
      M2TD_RETURN_IF_ERROR(snapshot_core(linear + 1));
    }
  }
  result.timings.stitch_seconds = stitch_timer.ElapsedSeconds();
  result.timings.core_seconds = core_timer.ElapsedSeconds();

  result.tucker.core = std::move(core);
  result.tucker.factors = std::move(factors);
  return result;
}

}  // namespace

Result<M2tdResult> M2tdDecomposeFromStores(
    const io::ChunkStore& store1, const io::ChunkStore& store2,
    const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, const M2tdOptions& options,
    const OocCheckpointOptions& checkpoint) {
  // The factor phase runs pooled kernels with no Status channel of their
  // own; a cancelled region throws CancelledError, which this boundary
  // converts back into the Status the API promises. (The slab loop handles
  // cancellation itself so it can flush a checkpoint first.)
  try {
    return M2tdDecomposeFromStoresImpl(store1, store2, partition, full_shape,
                                       options, checkpoint);
  } catch (const robust::CancelledError& error) {
    return error.ToStatus();
  }
}

}  // namespace m2td::core
