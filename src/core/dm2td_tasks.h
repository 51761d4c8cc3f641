#ifndef M2TD_CORE_DM2TD_TASKS_H_
#define M2TD_CORE_DM2TD_TASKS_H_

// The serializable task vocabulary of the multi-process D-M2TD backend,
// shared by the coordinator (dm2td_dist.cc) and the worker binary
// (tools/m2td_worker.cc). A task is a (phase, index, attempt) triple plus
// per-phase parameters; task bodies read their inputs from and commit
// their outputs to the durable io::ShuffleStore, so any task can be
// replayed on any worker after a death.
//
// Phase names: "p1map"/"p1red" (sub-tensor Grams) and "p2map"/"p2red"
// (per-pivot partial sums, sharded by pivot hash); the core is summed
// from the p2red records on the coordinator. Map task m of every phase
// reads input split m (fixed split count = shards, independent of worker
// count) and writes one blob per reduce shard; reduce task r concatenates
// the committed shard-r blobs in map-task order — reproducing the global
// input order — groups by key, and folds groups in ascending key order.
// Determinism therefore never depends on which worker ran what.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dm2td_internal.h"
#include "io/chunk_store.h"
#include "linalg/matrix.h"
#include "util/result.h"

namespace m2td::core::dm2td_tasks {

/// Environment knob (milliseconds): when set in a worker's environment,
/// every map task sleeps this long between writing its shard blobs and
/// committing — a deterministic window for chaos tests to land a SIGKILL
/// "mid-shuffle-write".
inline constexpr char kChaosSleepEnv[] = "M2TD_DIST_CHAOS_SLEEP_MS";

/// Environment knob "<phase>:<index>:<ms>[:<max_attempt>]": the named
/// task sleeps `ms` milliseconds at its start when its attempt number is
/// <= max_attempt (default 0, i.e. only the first attempt) — a
/// deterministic straggler for speculative-execution tests. The sleep is
/// cancel-aware, so a coordinator cancel frame cuts it short.
inline constexpr char kStragglerEnv[] = "M2TD_DIST_STRAGGLER";

/// Exit codes of the m2td_worker binary, surfaced by the coordinator via
/// waitpid into DistStats::worker_exit_details and the run report.
enum WorkerExitCode {
  kWorkerExitOk = 0,
  /// Torn control channel (unexpected error reading the coordinator).
  kWorkerExitTornPipe = 1,
  /// Bad command line / failed arming of chaos specs.
  kWorkerExitBadInvocation = 2,
  /// Could not open the shuffle store or load the job config.
  kWorkerExitBadJob = 3,
  /// A received frame failed to decode; the worker logs the offending
  /// frame header (first bytes, hex) before exiting with this code.
  kWorkerExitMalformedFrame = 5,
  /// Socket transport: the redial budget ran out without reattaching.
  kWorkerExitLostCoordinator = 6,
};

/// Human-readable meaning of a worker exit code ("malformed frame", ...).
const char* WorkerExitCodeName(int code);

/// Job-wide parameters, written once by the coordinator as
/// `<job_dir>/job.m2td` and loaded by every worker.
struct DistJobConfig {
  std::vector<std::uint64_t> full_shape, shape1, shape2;
  std::vector<std::size_t> pivot_modes, side1_modes, side2_modes;
  int shards = 0;
};

Status SaveJobConfig(const std::string& path, const DistJobConfig& config);
Result<DistJobConfig> LoadJobConfig(const std::string& path);

/// One task assignment as carried by the wire protocol.
struct TaskRequest {
  bool is_map = true;
  std::string phase;
  int index = 0;
  int attempt = 0;
};

/// "p1red" -> "p1map": the map phase a reduce phase consumes.
std::string MapPhaseOf(const std::string& reduce_phase);

/// Wire form of a task assignment ("task <is_map> <phase> <index>
/// <attempt>"), carried as one frame payload.
std::string EncodeTaskFrame(const TaskRequest& task);
Result<TaskRequest> DecodeTaskFrame(const std::string& frame);

// Little-endian binary record codecs for the shuffle blobs. Decoders are
// bounds-checked and return IOError on truncation (a failed CRC check
// would normally catch corruption first).
std::string EncodeCells(const std::vector<dm2td_internal::TensorCell>& cells);
Result<std::vector<dm2td_internal::TensorCell>> DecodeCells(
    const std::string& bytes);
std::string EncodePivotSums(const std::vector<PivotSums>& sums);
Result<std::vector<PivotSums>> DecodePivotSums(const std::string& bytes);
std::string EncodeGramPieces(
    const std::vector<dm2td_internal::GramPiece>& pieces);
Result<std::vector<dm2td_internal::GramPiece>> DecodeGramPieces(
    const std::string& bytes);
std::string EncodeMatrix(const linalg::Matrix& matrix);
Result<linalg::Matrix> DecodeMatrix(const std::string& bytes);

/// Executes one task against the store: reads inputs, computes via the
/// shared dm2td_internal bodies, durably writes + commits outputs.
/// DataLoss from a corrupted map output carries a "[task <phase>:<m>]"
/// marker naming the culprit map task (see ShuffleStore::ReadBlob), so
/// the coordinator re-executes the producer instead of retrying the
/// poisoned blob.
Status RunDistTask(const io::ShuffleStore& store,
                   const DistJobConfig& config, const TaskRequest& task);

}  // namespace m2td::core::dm2td_tasks

#endif  // M2TD_CORE_DM2TD_TASKS_H_
