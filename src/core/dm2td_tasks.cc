#include "core/dm2td_tasks.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/durable.h"
#include "robust/failpoint.h"

namespace m2td::core::dm2td_tasks {

using dm2td_internal::GramPiece;
using dm2td_internal::TensorCell;

namespace {

// ------------------------------------------------------- binary helpers

void PutU32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked sequential reader over an encoded blob.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  Status U32(std::uint32_t* v) { return Take(v); }
  Status U64(std::uint64_t* v) { return Take(v); }
  Status F64(double* v) { return Take(v); }
  bool AtEnd() const { return off_ == bytes_.size(); }

 private:
  template <typename T>
  Status Take(T* v) {
    if (off_ + sizeof(T) > bytes_.size()) {
      return Status::IOError("truncated shuffle record");
    }
    std::memcpy(v, bytes_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return Status::OK();
  }

  const std::string& bytes_;
  std::size_t off_ = 0;
};

// ------------------------------------------------------------ blob names

std::string CellSplitName(int split) {
  return "input/cells/split" + std::to_string(split);
}
std::string FactorName(int mode) {
  return "input/factor" + std::to_string(mode);
}

void MaybeChaosSleep() {
  const char* ms = std::getenv(kChaosSleepEnv);
  if (ms == nullptr) return;
  const long parsed = std::strtol(ms, nullptr, 10);
  if (parsed > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(parsed));
  }
}

/// Applies the M2TD_DIST_STRAGGLER knob ("<phase>:<index>:<ms>
/// [:<max_attempt>]") to `task`. Cancel-aware: a fired ambient token ends
/// the sleep early, so a cancelled speculative loser unwinds promptly.
void MaybeStragglerSleep(const TaskRequest& task) {
  const char* spec = std::getenv(kStragglerEnv);
  if (spec == nullptr || *spec == '\0') return;
  std::istringstream in(spec);
  std::string phase, field;
  if (!std::getline(in, phase, ':') || phase != task.phase) return;
  if (!std::getline(in, field, ':') ||
      std::strtol(field.c_str(), nullptr, 10) != task.index) {
    return;
  }
  if (!std::getline(in, field, ':')) return;
  const double ms = std::strtod(field.c_str(), nullptr);
  long max_attempt = 0;
  if (std::getline(in, field, ':')) {
    max_attempt = std::strtol(field.c_str(), nullptr, 10);
  }
  if (task.attempt > max_attempt || ms <= 0) return;
  const robust::CancelToken token = robust::CurrentCancelToken();
  if (token.CanBeCancelled()) {
    token.WaitForMillis(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

// --------------------------------------------------------------- stages

Status RunMapTask(const io::ShuffleStore& store, const DistJobConfig& config,
                  const TaskRequest& task) {
  const std::uint64_t shards = static_cast<std::uint64_t>(config.shards);
  M2TD_ASSIGN_OR_RETURN(std::string bytes,
                        store.ReadBlob(CellSplitName(task.index), "input"));
  M2TD_ASSIGN_OR_RETURN(std::vector<TensorCell> cells, DecodeCells(bytes));
  std::vector<std::vector<TensorCell>> buckets(shards);
  for (TensorCell& cell : cells) {
    // Phase 1 shards by sub-tensor, phase 2 by the row-major pivot key —
    // both functions of the record alone, so sharding is identical for
    // any worker count and any split boundaries.
    std::uint64_t key = static_cast<std::uint64_t>(cell.kappa - 1);
    if (task.phase == "p2map") {
      key = 0;
      for (std::size_t i = 0; i < config.pivot_modes.size(); ++i) {
        key = key * config.full_shape[config.pivot_modes[i]] + cell.idx[i];
      }
    }
    buckets[key % shards].push_back(std::move(cell));
  }

  std::vector<std::string> blob_names;
  for (std::uint64_t r = 0; r < shards; ++r) {
    if (buckets[r].empty()) continue;
    const std::string name = io::ShuffleStore::BlobName(
        task.phase, task.index, task.attempt, "shard" + std::to_string(r));
    M2TD_RETURN_IF_ERROR(store.WriteBlob(name, EncodeCells(buckets[r])));
    blob_names.push_back(name);
  }
  MaybeChaosSleep();
  return store.CommitTask(task.phase, task.index, task.attempt, blob_names);
}

/// Concatenates the committed shard-`r` blobs of every map task of
/// `map_phase`, in map-task order — reproducing the global input order
/// the thread backend's shuffle delivers.
Result<std::vector<std::string>> ReadShardBlobs(
    const io::ShuffleStore& store, const std::string& map_phase, int shards,
    int r) {
  std::vector<std::string> payloads;
  for (int m = 0; m < shards; ++m) {
    M2TD_ASSIGN_OR_RETURN(io::ShuffleStore::TaskCommit commit,
                          store.ReadCommit(map_phase, m));
    const std::string name = io::ShuffleStore::BlobName(
        map_phase, m, commit.attempt, "shard" + std::to_string(r));
    bool listed = false;
    for (const std::string& blob : commit.blobs) {
      if (blob == name) {
        listed = true;
        break;
      }
    }
    if (!listed) continue;  // map task emitted nothing for this shard
    M2TD_ASSIGN_OR_RETURN(
        std::string bytes,
        store.ReadBlob(name, map_phase + ":" + std::to_string(m)));
    payloads.push_back(std::move(bytes));
  }
  return payloads;
}

Status RunReduceTask(const io::ShuffleStore& store,
                     const DistJobConfig& config, const TaskRequest& task) {
  const std::string map_phase = MapPhaseOf(task.phase);
  M2TD_ASSIGN_OR_RETURN(
      std::vector<std::string> payloads,
      ReadShardBlobs(store, map_phase, config.shards, task.index));

  std::string out_bytes;
  if (task.phase == "p1red") {
    std::vector<TensorCell> cells;
    for (const std::string& bytes : payloads) {
      M2TD_ASSIGN_OR_RETURN(std::vector<TensorCell> part,
                            DecodeCells(bytes));
      cells.insert(cells.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
    std::map<int, std::vector<TensorCell>> by_kappa;
    for (TensorCell& cell : cells) {
      by_kappa[cell.kappa].push_back(std::move(cell));
    }
    std::vector<GramPiece> pieces;
    for (const auto& [kappa, group] : by_kappa) {
      M2TD_RETURN_IF_ERROR(dm2td_internal::BuildGramsForSub(
          kappa, kappa == 1 ? config.shape1 : config.shape2, group,
          &pieces));
    }
    out_bytes = EncodeGramPieces(pieces);
  } else {  // p2red
    const std::size_t num_modes = config.full_shape.size();
    std::vector<linalg::Matrix> factors(num_modes);
    for (std::size_t n = 0; n < num_modes; ++n) {
      M2TD_ASSIGN_OR_RETURN(
          std::string factor_bytes,
          store.ReadBlob(FactorName(static_cast<int>(n)), "input"));
      M2TD_ASSIGN_OR_RETURN(factors[n], DecodeMatrix(factor_bytes));
    }
    M2TD_ASSIGN_OR_RETURN(
        const SeparableCore sep,
        SeparableCore::Make(PfPartition{config.pivot_modes,
                                        config.side1_modes,
                                        config.side2_modes},
                            config.full_shape, factors));
    // Group by pivot key, preserving global arrival order within each
    // group; fold groups in ascending key order (canonical).
    std::map<std::uint64_t, std::vector<TensorCell>> groups;
    for (const std::string& bytes : payloads) {
      M2TD_ASSIGN_OR_RETURN(std::vector<TensorCell> part,
                            DecodeCells(bytes));
      for (TensorCell& cell : part) {
        const std::uint64_t key = sep.PivotKey(cell.idx);
        groups[key].push_back(std::move(cell));
      }
    }
    std::vector<PivotSums> out;
    for (const auto& [key, group] : groups) {
      out.push_back(dm2td_internal::SumPivotGroup(sep, key, group));
    }
    out_bytes = EncodePivotSums(out);
  }

  const std::string name = io::ShuffleStore::BlobName(
      task.phase, task.index, task.attempt, "data");
  M2TD_RETURN_IF_ERROR(store.WriteBlob(name, out_bytes));
  MaybeChaosSleep();
  return store.CommitTask(task.phase, task.index, task.attempt, {name});
}

}  // namespace

// ------------------------------------------------------------ job config

Status SaveJobConfig(const std::string& path, const DistJobConfig& config) {
  return robust::AtomicWriteFile(path, [&](const std::string& tmp) -> Status {
    std::ofstream out(tmp);
    if (!out) return Status::IOError("cannot write job config '" + tmp + "'");
    auto write_u64s = [&out](const char* label,
                             const std::vector<std::uint64_t>& values) {
      out << label << " " << values.size();
      for (std::uint64_t v : values) out << " " << v;
      out << "\n";
    };
    auto write_modes = [&out](const char* label,
                              const std::vector<std::size_t>& values) {
      out << label << " " << values.size();
      for (std::size_t v : values) out << " " << v;
      out << "\n";
    };
    out << "m2td-dist-job 1\n";
    write_u64s("full_shape", config.full_shape);
    write_u64s("shape1", config.shape1);
    write_u64s("shape2", config.shape2);
    write_modes("pivot_modes", config.pivot_modes);
    write_modes("side1_modes", config.side1_modes);
    write_modes("side2_modes", config.side2_modes);
    out << "shards " << config.shards << "\n";
    out.flush();
    if (!out) return Status::IOError("job config write failed");
    return Status::OK();
  });
}

Result<DistJobConfig> LoadJobConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open job config '" + path + "'");
  std::string magic, token;
  int version = 0;
  if (!(in >> magic >> version) || magic != "m2td-dist-job" || version != 1) {
    return Status::IOError("malformed job config '" + path + "'");
  }
  DistJobConfig config;
  auto read_u64s = [&](const char* label,
                       std::vector<std::uint64_t>* out) -> Status {
    std::size_t count = 0;
    if (!(in >> token >> count) || token != label) {
      return Status::IOError(std::string("malformed job config: ") + label);
    }
    out->resize(count);
    for (std::uint64_t& v : *out) {
      if (!(in >> v)) return Status::IOError("malformed job config value");
    }
    return Status::OK();
  };
  auto read_modes = [&](const char* label,
                        std::vector<std::size_t>* out) -> Status {
    std::size_t count = 0;
    if (!(in >> token >> count) || token != label) {
      return Status::IOError(std::string("malformed job config: ") + label);
    }
    out->resize(count);
    for (std::size_t& v : *out) {
      if (!(in >> v)) return Status::IOError("malformed job config value");
    }
    return Status::OK();
  };
  M2TD_RETURN_IF_ERROR(read_u64s("full_shape", &config.full_shape));
  M2TD_RETURN_IF_ERROR(read_u64s("shape1", &config.shape1));
  M2TD_RETURN_IF_ERROR(read_u64s("shape2", &config.shape2));
  M2TD_RETURN_IF_ERROR(read_modes("pivot_modes", &config.pivot_modes));
  M2TD_RETURN_IF_ERROR(read_modes("side1_modes", &config.side1_modes));
  M2TD_RETURN_IF_ERROR(read_modes("side2_modes", &config.side2_modes));
  if (!(in >> token >> config.shards) || token != "shards" ||
      config.shards <= 0) {
    return Status::IOError("malformed job config: shards");
  }
  return config;
}

std::string MapPhaseOf(const std::string& reduce_phase) {
  std::string map_phase = reduce_phase;
  const std::size_t pos = map_phase.find("red");
  if (pos != std::string::npos) map_phase.replace(pos, 3, "map");
  return map_phase;
}

std::string EncodeTaskFrame(const TaskRequest& task) {
  std::string frame = "task ";
  frame += task.is_map ? "1" : "0";
  frame += " " + task.phase;
  frame += " " + std::to_string(task.index);
  frame += " " + std::to_string(task.attempt);
  return frame;
}

Result<TaskRequest> DecodeTaskFrame(const std::string& frame) {
  std::istringstream in(frame);
  std::string word;
  int is_map = 0;
  TaskRequest task;
  if (!(in >> word >> is_map >> task.phase >> task.index >> task.attempt) ||
      word != "task") {
    return Status::IOError("malformed task frame '" + frame + "'");
  }
  task.is_map = is_map != 0;
  return task;
}

// ---------------------------------------------------------------- codecs

std::string EncodeCells(const std::vector<TensorCell>& cells) {
  std::string out;
  PutU64(&out, cells.size());
  for (const TensorCell& cell : cells) {
    PutU32(&out, static_cast<std::uint32_t>(cell.kappa));
    PutU32(&out, static_cast<std::uint32_t>(cell.idx.size()));
    for (std::uint32_t i : cell.idx) PutU32(&out, i);
    PutF64(&out, cell.value);
  }
  return out;
}

Result<std::vector<TensorCell>> DecodeCells(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  std::vector<TensorCell> cells;
  cells.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, bytes.size() / 16 + 1)));
  for (std::uint64_t e = 0; e < count; ++e) {
    TensorCell cell;
    std::uint32_t kappa = 0, arity = 0;
    M2TD_RETURN_IF_ERROR(reader.U32(&kappa));
    M2TD_RETURN_IF_ERROR(reader.U32(&arity));
    cell.kappa = static_cast<int>(kappa);
    cell.idx.resize(arity);
    for (std::uint32_t& i : cell.idx) M2TD_RETURN_IF_ERROR(reader.U32(&i));
    M2TD_RETURN_IF_ERROR(reader.F64(&cell.value));
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::string EncodePivotSums(const std::vector<PivotSums>& sums) {
  std::string out;
  PutU64(&out, sums.size());
  for (const PivotSums& s : sums) {
    PutU64(&out, s.pivot_key);
    PutU64(&out, s.count1);
    PutU64(&out, s.count2);
    for (const std::vector<double>* v : {&s.a1, &s.c1, &s.a2, &s.c2}) {
      PutU64(&out, v->size());
      for (double x : *v) PutF64(&out, x);
    }
  }
  return out;
}

Result<std::vector<PivotSums>> DecodePivotSums(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  std::vector<PivotSums> sums;
  for (std::uint64_t r = 0; r < count; ++r) {
    PivotSums s;
    M2TD_RETURN_IF_ERROR(reader.U64(&s.pivot_key));
    M2TD_RETURN_IF_ERROR(reader.U64(&s.count1));
    M2TD_RETURN_IF_ERROR(reader.U64(&s.count2));
    for (std::vector<double>* v : {&s.a1, &s.c1, &s.a2, &s.c2}) {
      std::uint64_t size = 0;
      M2TD_RETURN_IF_ERROR(reader.U64(&size));
      if (size > bytes.size() / sizeof(double)) {
        return Status::IOError("truncated shuffle record");
      }
      v->resize(static_cast<std::size_t>(size));
      for (double& x : *v) M2TD_RETURN_IF_ERROR(reader.F64(&x));
    }
    sums.push_back(std::move(s));
  }
  return sums;
}

std::string EncodeMatrix(const linalg::Matrix& matrix) {
  std::string out;
  PutU64(&out, matrix.rows());
  PutU64(&out, matrix.cols());
  for (double v : matrix.data()) PutF64(&out, v);
  return out;
}

Result<linalg::Matrix> DecodeMatrix(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t rows = 0, cols = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&rows));
  M2TD_RETURN_IF_ERROR(reader.U64(&cols));
  if (rows * cols * sizeof(double) > bytes.size()) {
    return Status::IOError("truncated matrix blob");
  }
  linalg::Matrix matrix(static_cast<std::size_t>(rows),
                        static_cast<std::size_t>(cols));
  for (double& v : matrix.mutable_data()) {
    M2TD_RETURN_IF_ERROR(reader.F64(&v));
  }
  return matrix;
}

std::string EncodeGramPieces(const std::vector<GramPiece>& pieces) {
  std::string out;
  PutU64(&out, pieces.size());
  for (const GramPiece& piece : pieces) {
    PutU32(&out, static_cast<std::uint32_t>(piece.kappa));
    PutU64(&out, piece.sub_mode);
    PutU64(&out, piece.gram.rows());
    PutU64(&out, piece.gram.cols());
    for (double v : piece.gram.data()) PutF64(&out, v);
  }
  return out;
}

Result<std::vector<GramPiece>> DecodeGramPieces(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  std::vector<GramPiece> pieces;
  for (std::uint64_t e = 0; e < count; ++e) {
    GramPiece piece;
    std::uint32_t kappa = 0;
    std::uint64_t sub_mode = 0, rows = 0, cols = 0;
    M2TD_RETURN_IF_ERROR(reader.U32(&kappa));
    M2TD_RETURN_IF_ERROR(reader.U64(&sub_mode));
    M2TD_RETURN_IF_ERROR(reader.U64(&rows));
    M2TD_RETURN_IF_ERROR(reader.U64(&cols));
    if (rows * cols * sizeof(double) > bytes.size()) {
      return Status::IOError("truncated gram blob");
    }
    piece.kappa = static_cast<int>(kappa);
    piece.sub_mode = static_cast<std::size_t>(sub_mode);
    piece.gram = linalg::Matrix(static_cast<std::size_t>(rows),
                                static_cast<std::size_t>(cols));
    for (double& v : piece.gram.mutable_data()) {
      M2TD_RETURN_IF_ERROR(reader.F64(&v));
    }
    pieces.push_back(std::move(piece));
  }
  return pieces;
}

// ------------------------------------------------------------- execution

Status RunDistTask(const io::ShuffleStore& store,
                   const DistJobConfig& config, const TaskRequest& task) {
  obs::ObsSpan span(task.is_map ? "dist_map_task" : "dist_reduce_task");
  span.Annotate("phase", task.phase);
  span.Annotate("task", static_cast<std::int64_t>(task.index));
  span.Annotate("attempt", static_cast<std::int64_t>(task.attempt));
  M2TD_RETURN_IF_ERROR(robust::CheckFailpoint(
      task.is_map ? "dist.map_task" : "dist.reduce_task"));
  MaybeStragglerSleep(task);
  M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
  if (task.is_map) return RunMapTask(store, config, task);
  return RunReduceTask(store, config, task);
}

const char* WorkerExitCodeName(int code) {
  switch (code) {
    case kWorkerExitOk:
      return "ok";
    case kWorkerExitTornPipe:
      return "torn control channel";
    case kWorkerExitBadInvocation:
      return "bad invocation";
    case kWorkerExitBadJob:
      return "unreadable job";
    case kWorkerExitMalformedFrame:
      return "malformed frame";
    case kWorkerExitLostCoordinator:
      return "lost coordinator";
  }
  return "unknown";
}

}  // namespace m2td::core::dm2td_tasks
