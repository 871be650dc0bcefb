#ifndef PRISTI_EVAL_HARNESS_H_
#define PRISTI_EVAL_HARNESS_H_

// Experiment harness: adapts the diffusion models (PriSTI, CSDI, the
// ablation variants) to the common Imputer interface, runs any imputer over
// a task's test split, and reports the paper's metrics in raw data units.
//
// Exclusive model access: everything here (ImputeSeries, EvaluateImputer,
// EvaluateFittedImputer, the adapters) drives the model from the calling
// thread and assumes it is the model's ONLY user for the duration of the
// call — the window-level diffusion entry points underneath hold a
// diffusion::ModelAccessGuard and abort on overlap when debug checks are
// compiled in. To share one model between concurrent callers, put a
// serve::ServeSession in front of it instead of calling the harness from
// multiple threads.

#include <functional>
#include <memory>
#include <string>

#include "baselines/csdi.h"
#include "baselines/imputer.h"
#include "diffusion/ddpm.h"
#include "pristi/pristi_model.h"

namespace pristi::eval {

using baselines::Imputer;
using tensor::Tensor;

// Shared reduced-scale defaults for the diffusion models in the benches.
struct DiffusionRunOptions {
  int64_t diffusion_steps = 50;
  float beta_1 = 1e-4f;
  float beta_end = 0.2f;
  diffusion::TrainOptions train;
  diffusion::ImputeOptions impute;
};

// Wraps a ConditionalNoisePredictor + schedule + training config behind the
// Imputer interface so the harness treats diffusion models like any other
// method.
class DiffusionImputerAdapter : public Imputer {
 public:
  DiffusionImputerAdapter(std::string name,
                          std::shared_ptr<diffusion::ConditionalNoisePredictor>
                              model,
                          DiffusionRunOptions options);

  std::string name() const override { return name_; }
  void Fit(const data::ImputationTask& task, Rng& rng) override;
  Tensor Impute(const data::Sample& sample, Rng& rng) override;
  diffusion::ImputationResult ImputeSamples(const data::Sample& sample,
                                            int64_t num_samples,
                                            Rng& rng) override;

  const std::vector<double>& train_losses() const { return train_losses_; }

  // Cumulative sampling throughput counters: every reverse-diffusion sample
  // generated through this adapter (Impute and ImputeSamples) and the wall
  // time spent generating them. The harness reports their ratio as
  // samples/sec.
  int64_t generated_samples() const { return generated_samples_; }
  double sample_seconds() const { return sample_seconds_; }

  // Adjusts sampling (sample count, DDIM) after construction; lets sweeps
  // reuse one trained model under different inference settings.
  void set_impute_options(const diffusion::ImputeOptions& impute) {
    options_.impute = impute;
  }
  const diffusion::ImputeOptions& impute_options() const {
    return options_.impute;
  }

  // Training knobs applied by the next Fit(); exposes the checkpoint/resume
  // options (TrainOptions::checkpoint_dir / resume_from / ...)
  // so the CLI and studies can thread them through without widening Fit's
  // signature.
  diffusion::TrainOptions& mutable_train_options() { return options_.train; }

 private:
  std::string name_;
  std::shared_ptr<diffusion::ConditionalNoisePredictor> model_;
  DiffusionRunOptions options_;
  diffusion::NoiseSchedule schedule_;
  std::vector<double> train_losses_;
  int64_t generated_samples_ = 0;
  double sample_seconds_ = 0.0;
};

// Factory helpers used across benches.
std::unique_ptr<DiffusionImputerAdapter> MakePristiImputer(
    const core::PristiConfig& config, const Tensor& adjacency,
    const DiffusionRunOptions& options, Rng& rng, std::string name = "PriSTI");
std::unique_ptr<DiffusionImputerAdapter> MakeCsdiImputer(
    const baselines::CsdiConfig& config, const DiffusionRunOptions& options,
    Rng& rng);

// One method's scores on one task (metrics in RAW data units).
struct MethodResult {
  std::string method;
  double mae = 0.0;
  double mse = 0.0;
  double crps = 0.0;  // normalized CRPS; 0 unless probabilistic eval ran
  double fit_seconds = 0.0;
  double impute_seconds = 0.0;
  // Reverse-diffusion samples generated per second during this evaluation;
  // 0 for non-diffusion methods (they produce point imputations only).
  double samples_per_sec = 0.0;
};

struct EvaluateOptions {
  // > 0 enables CRPS with this many generated samples per window. The
  // window's one sample set is then scored twice: MAE/MSE on the per-entry
  // median ImputeSamples returns with it, CRPS on the samples.
  // 0 scores MAE/MSE on the imputer's deterministic Impute.
  int64_t crps_samples = 0;
  // Restrict scoring to these nodes (empty = all); used by the
  // sensor-failure study.
  std::vector<int64_t> score_nodes;
};

// Fits `imputer` on the task and scores it on the test split.
MethodResult EvaluateImputer(Imputer* imputer,
                             const data::ImputationTask& task, Rng& rng,
                             const EvaluateOptions& options = {});

// Scores an already-fitted imputer (skips Fit).
MethodResult EvaluateFittedImputer(Imputer* imputer,
                                   const data::ImputationTask& task, Rng& rng,
                                   const EvaluateOptions& options = {});

// Imputes the ENTIRE series with a fitted imputer: observed entries keep
// their raw values, everything else (original missing and withheld) is
// filled from the imputation. Returns (T, N) in raw units — the input for
// the downstream forecasting study (Table V).
Tensor ImputeSeries(Imputer* imputer, const data::ImputationTask& task,
                    Rng& rng);

}  // namespace pristi::eval

#endif  // PRISTI_EVAL_HARNESS_H_
