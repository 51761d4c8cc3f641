#include "core/experiment.h"

#include "obs/trace.h"
#include "tensor/tucker.h"
#include "util/random.h"
#include "util/timer.h"

namespace m2td::core {

namespace {

/// Reconstruction accuracy of `tucker` against the ground truth, timed as
/// the `score` span.
Result<double> Score(const tensor::TuckerDecomposition& tucker,
                     const tensor::DenseTensor& ground_truth) {
  obs::ObsSpan span("score");
  M2TD_ASSIGN_OR_RETURN(tensor::DenseTensor reconstructed,
                        tensor::Reconstruct(tucker));
  return tensor::ReconstructionAccuracy(reconstructed, ground_truth);
}

}  // namespace

std::vector<std::uint64_t> UniformRanks(const ensemble::SimulationModel& model,
                                        std::uint64_t rank) {
  return std::vector<std::uint64_t>(model.space().num_modes(), rank);
}

Result<SchemeOutcome> RunConventional(ensemble::SimulationModel* model,
                                      const tensor::DenseTensor& ground_truth,
                                      ensemble::ConventionalScheme scheme,
                                      std::uint64_t budget,
                                      std::uint64_t rank,
                                      std::uint64_t seed,
                                      const linalg::GramFactorOptions& init) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  Rng rng(seed);
  M2TD_ASSIGN_OR_RETURN(
      tensor::SparseTensor ensemble_x,
      ensemble::BuildConventionalEnsemble(model, scheme, budget, &rng));

  SchemeOutcome outcome;
  outcome.scheme = ensemble::ConventionalSchemeName(scheme);
  outcome.budget_cells = ensemble_x.NumNonZeros();
  outcome.nnz = ensemble_x.NumNonZeros();

  Timer timer;
  tensor::HosvdOptions hosvd;
  hosvd.factor = init;
  M2TD_ASSIGN_OR_RETURN(
      tensor::TuckerDecomposition tucker,
      tensor::HosvdSparse(ensemble_x,
                          std::vector<std::uint64_t>(
                              ensemble_x.num_modes(), rank),
                          hosvd));
  outcome.decompose_seconds = timer.ElapsedSeconds();

  M2TD_ASSIGN_OR_RETURN(outcome.accuracy, Score(tucker, ground_truth));
  return outcome;
}

Result<SchemeOutcome> RunM2td(ensemble::SimulationModel* model,
                              const tensor::DenseTensor& ground_truth,
                              const PfPartition& partition,
                              M2tdMethod method, std::uint64_t rank,
                              const SubEnsembleOptions& sub_options,
                              const StitchOptions& stitch_options,
                              const linalg::GramFactorOptions& init) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  M2TD_ASSIGN_OR_RETURN(SubEnsembles subs,
                        BuildSubEnsembles(model, partition, sub_options));

  M2tdOptions options;
  options.method = method;
  options.ranks = UniformRanks(*model, rank);
  options.stitch = stitch_options;
  options.init = init;

  SchemeOutcome outcome;
  outcome.scheme = M2tdMethodName(method);
  outcome.budget_cells = subs.cells_evaluated;

  M2TD_ASSIGN_OR_RETURN(
      M2tdResult result,
      M2tdDecompose(subs, partition, model->space().Shape(), options));
  outcome.nnz = result.join_nnz;
  outcome.timings = result.timings;
  outcome.decompose_seconds = result.timings.TotalSeconds();

  M2TD_ASSIGN_OR_RETURN(outcome.accuracy,
                        Score(result.tucker, ground_truth));
  return outcome;
}

Result<SchemeOutcome> RunUnionBaseline(const tensor::SparseTensor& ensemble_x,
                                       const tensor::DenseTensor&
                                           ground_truth,
                                       std::uint64_t rank,
                                       const std::string& label) {
  SchemeOutcome outcome;
  outcome.scheme = label;
  outcome.budget_cells = ensemble_x.NumNonZeros();
  outcome.nnz = ensemble_x.NumNonZeros();

  Timer timer;
  M2TD_ASSIGN_OR_RETURN(
      tensor::TuckerDecomposition tucker,
      tensor::HosvdSparse(ensemble_x,
                          std::vector<std::uint64_t>(
                              ensemble_x.num_modes(), rank)));
  outcome.decompose_seconds = timer.ElapsedSeconds();

  M2TD_ASSIGN_OR_RETURN(outcome.accuracy, Score(tucker, ground_truth));
  return outcome;
}

}  // namespace m2td::core
