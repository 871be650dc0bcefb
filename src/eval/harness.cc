#include "eval/harness.h"

#include <algorithm>

#include "autograd/variable.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "metrics/metrics.h"

namespace pristi::eval {

namespace t = ::pristi::tensor;

DiffusionImputerAdapter::DiffusionImputerAdapter(
    std::string name,
    std::shared_ptr<diffusion::ConditionalNoisePredictor> model,
    DiffusionRunOptions options)
    : name_(std::move(name)),
      model_(std::move(model)),
      options_(options),
      schedule_(diffusion::NoiseSchedule::Quadratic(
          options.diffusion_steps, options.beta_1, options.beta_end)) {
  PRISTI_CHECK(model_ != nullptr);
}

void DiffusionImputerAdapter::Fit(const data::ImputationTask& task,
                                  Rng& rng) {
  train_losses_ = diffusion::TrainDiffusionModel(model_.get(), schedule_,
                                                 task, options_.train, rng);
}

Tensor DiffusionImputerAdapter::Impute(const data::Sample& sample, Rng& rng) {
  Stopwatch watch;
  diffusion::ImputationResult result = diffusion::ImputeWindow(
      model_.get(), schedule_, sample, options_.impute, rng);
  sample_seconds_ += watch.ElapsedSeconds();
  generated_samples_ += options_.impute.num_samples;
  return result.median;
}

diffusion::ImputationResult DiffusionImputerAdapter::ImputeSamples(
    const data::Sample& sample, int64_t num_samples, Rng& rng) {
  diffusion::ImputeOptions impute = options_.impute;
  impute.num_samples = num_samples;
  Stopwatch watch;
  diffusion::ImputationResult result =
      diffusion::ImputeWindow(model_.get(), schedule_, sample, impute, rng);
  sample_seconds_ += watch.ElapsedSeconds();
  generated_samples_ += num_samples;
  return result;
}

std::unique_ptr<DiffusionImputerAdapter> MakePristiImputer(
    const core::PristiConfig& config, const Tensor& adjacency,
    const DiffusionRunOptions& options, Rng& rng, std::string name) {
  auto model = std::make_shared<core::PristiModel>(config, adjacency, rng);
  return std::make_unique<DiffusionImputerAdapter>(std::move(name),
                                                   std::move(model), options);
}

std::unique_ptr<DiffusionImputerAdapter> MakeCsdiImputer(
    const baselines::CsdiConfig& config, const DiffusionRunOptions& options,
    Rng& rng) {
  auto model = std::make_shared<baselines::CsdiModel>(config, rng);
  return std::make_unique<DiffusionImputerAdapter>("CSDI", std::move(model),
                                                   options);
}

namespace {

// Zeroes mask entries outside `score_nodes` (node-major (N, L) masks).
Tensor RestrictToNodes(const Tensor& mask,
                       const std::vector<int64_t>& score_nodes) {
  if (score_nodes.empty()) return mask;
  Tensor out = Tensor::Zeros(mask.shape());
  int64_t l = mask.dim(1);
  for (int64_t node : score_nodes) {
    for (int64_t step = 0; step < l; ++step) {
      out.at({node, step}) = mask.at({node, step});
    }
  }
  return out;
}

}  // namespace

MethodResult EvaluateFittedImputer(Imputer* imputer,
                                   const data::ImputationTask& task, Rng& rng,
                                   const EvaluateOptions& options) {
  PRISTI_CHECK(imputer != nullptr);
  // Evaluation is inference-only for every imputer (fitting happened in
  // Fit()); skip tape recording for all Impute calls below.
  autograd::NoGradGuard no_grad;
  MethodResult result;
  result.method = imputer->name();
  metrics::ErrorAccumulator errors;
  metrics::CrpsAccumulator crps;
  // Snapshot the adapter's throughput counters so samples/sec covers only
  // this evaluation (adapters can be evaluated repeatedly across sweeps).
  auto* diffusion_adapter = dynamic_cast<DiffusionImputerAdapter*>(imputer);
  int64_t samples_before =
      diffusion_adapter ? diffusion_adapter->generated_samples() : 0;
  double seconds_before =
      diffusion_adapter ? diffusion_adapter->sample_seconds() : 0.0;
  Stopwatch impute_watch;
  for (const data::Sample& sample : data::ExtractSamples(task, "test")) {
    Tensor eval_mask = RestrictToNodes(sample.eval, options.score_nodes);
    if (t::SumAll(eval_mask) == 0.0f) continue;
    Tensor truth_raw =
        task.normalizer.Invert(sample.values, /*node_major=*/true);
    if (options.crps_samples <= 0) {
      Tensor prediction = imputer->Impute(sample, rng);
      errors.Add(task.normalizer.Invert(prediction, /*node_major=*/true),
                 truth_raw, eval_mask);
      continue;
    }
    diffusion::ImputationResult drawn =
        imputer->ImputeSamples(sample, options.crps_samples, rng);
    errors.Add(task.normalizer.Invert(drawn.median, /*node_major=*/true),
               truth_raw, eval_mask);
    std::vector<Tensor> samples_raw;
    samples_raw.reserve(drawn.samples.size());
    for (const Tensor& s : drawn.samples) {
      samples_raw.push_back(task.normalizer.Invert(s, /*node_major=*/true));
    }
    crps.Add(samples_raw, truth_raw, eval_mask);
  }
  result.impute_seconds = impute_watch.ElapsedSeconds();
  if (diffusion_adapter != nullptr) {
    int64_t samples = diffusion_adapter->generated_samples() - samples_before;
    double seconds = diffusion_adapter->sample_seconds() - seconds_before;
    if (samples > 0 && seconds > 0.0) {
      result.samples_per_sec = static_cast<double>(samples) / seconds;
    }
  }
  result.mae = errors.Mae();
  result.mse = errors.Mse();
  if (options.crps_samples > 0) result.crps = crps.NormalizedCrps();
  return result;
}

Tensor ImputeSeries(Imputer* imputer, const data::ImputationTask& task,
                    Rng& rng) {
  autograd::NoGradGuard no_grad;
  int64_t t_steps = task.dataset.num_steps;
  int64_t n = task.dataset.num_nodes;
  int64_t l = task.window_len;
  Tensor out = task.dataset.values;  // start from ground truth layout
  // Overwrite every entry: observed -> raw value; missing -> imputation.
  for (int64_t start = 0; start < t_steps; start += l) {
    if (start + l > t_steps) start = t_steps - l;  // clipped tail window
    data::Sample sample = data::ExtractWindow(task, start);
    Tensor prediction = imputer->Impute(sample, rng);
    Tensor prediction_raw =
        task.normalizer.Invert(prediction, /*node_major=*/true);
    for (int64_t node = 0; node < n; ++node) {
      for (int64_t step = 0; step < l; ++step) {
        if (sample.observed.at({node, step}) < 0.5f) {
          out.at({start + step, node}) = prediction_raw.at({node, step});
        } else {
          out.at({start + step, node}) =
              task.dataset.values.at({start + step, node});
        }
      }
    }
    if (start == t_steps - l) break;
  }
  return out;
}

MethodResult EvaluateImputer(Imputer* imputer,
                             const data::ImputationTask& task, Rng& rng,
                             const EvaluateOptions& options) {
  Stopwatch fit_watch;
  imputer->Fit(task, rng);
  double fit_seconds = fit_watch.ElapsedSeconds();
  MethodResult result = EvaluateFittedImputer(imputer, task, rng, options);
  result.fit_seconds = fit_seconds;
  return result;
}

}  // namespace pristi::eval
