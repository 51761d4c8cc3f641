#ifndef M2TD_CORE_OOC_M2TD_H_
#define M2TD_CORE_OOC_M2TD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/m2td.h"
#include "core/pf_partition.h"
#include "io/chunk_store.h"
#include "util/result.h"

namespace m2td::core {

/// \brief Checkpoint-resume controls for the out-of-core decomposition.
///
/// With a non-empty `checkpoint_dir` the slab loop snapshots its partial
/// core every `checkpoint_every` pivot slabs (artifact written atomically,
/// then journaled — see robust::CheckpointJournal). A killed run restarted
/// with `resume = true` reloads the newest snapshot and continues from the
/// slab after it; because the core is accumulated in a fixed prefix order
/// and snapshots round-trip doubles exactly, the resumed result is
/// bit-identical to an uninterrupted run.
struct OocCheckpointOptions {
  /// Journal + snapshot directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Continue from an existing journal (its fingerprint must match this
  /// run's configuration); false wipes any previous checkpoint state.
  bool resume = false;
  /// Pivot slabs between partial-core snapshots.
  std::uint64_t checkpoint_every = 8;
};

/// \brief Out-of-core M2TD: the decomposition of the join tensor computed
/// with *bounded memory* from two sub-ensemble tensors living in chunked
/// on-disk stores — the TensorDB-flavored deployment of the algorithm.
///
/// Memory profile:
///  - Factor matrices come from per-mode Grams streamed chunk-by-chunk
///    (io::ModeGramFromStore) through the shared M2tdFactors, under
///    `options.init`; peak memory is one chunk slab plus an I_n x I_n
///    Gram.
///  - The join tensor is *never materialized*: join cells only pair
///    entries sharing a pivot configuration, so each pivot slab's core
///    term comes from its partial sums (SeparableCore), added to the core
///    slab by slab. Peak memory is one pivot slab of each sub-tensor plus
///    two copies of the core.
///
/// Each store must hold the corresponding side's sub-tensor in *sub-tensor
/// mode order* (pivots first, then that side's free modes), with shapes
/// matching the partition. Zero-join stitching needs globally consistent
/// candidate sets and is not supported here (Unimplemented); use the
/// in-memory pipeline for it.
///
/// The result is identical (up to floating-point reassociation) to
/// M2tdDecompose over the fully-loaded sub-ensembles; the equivalence is
/// asserted by tests.
Result<M2tdResult> M2tdDecomposeFromStores(
    const io::ChunkStore& store1, const io::ChunkStore& store2,
    const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, const M2tdOptions& options,
    const OocCheckpointOptions& checkpoint = {});

}  // namespace m2td::core

#endif  // M2TD_CORE_OOC_M2TD_H_
