// Quickstart: the smallest end-to-end PriSTI run.
//
// 1. Generate a synthetic spatiotemporal dataset (a stand-in for a sensor
//    network feed) and withhold 25% of the observations as imputation
//    targets.
// 2. Train the PriSTI conditional diffusion model (Algorithm 1).
// 3. Probabilistically impute a test window (Algorithm 2) and print the
//    median estimate with its 90% interval next to the ground truth.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "data/windows.h"
#include "eval/harness.h"

using namespace pristi;

int main() {
  // --- 1. Data: 10 sensors, 30 days of hourly readings, point missing.
  data::SyntheticConfig dataset_config;
  dataset_config.num_nodes = 10;
  dataset_config.num_steps = 720;
  dataset_config.steps_per_day = 24;
  dataset_config.original_missing_rate = 0.05;
  Rng rng(7);
  auto dataset = data::GenerateSynthetic(dataset_config, rng);
  auto task = data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                             data::TaskOptions{.window_len = 16, .stride = 4},
                             rng);
  std::printf("dataset: %s  (%lld sensors, %lld steps)\n",
              task.dataset.name.c_str(),
              static_cast<long long>(task.dataset.num_nodes),
              static_cast<long long>(task.dataset.num_steps));

  // --- 2. Model + training.
  core::PristiConfig model_config;
  model_config.num_nodes = task.dataset.num_nodes;
  model_config.window_len = task.window_len;
  model_config.channels = 16;
  model_config.heads = 2;
  model_config.layers = 2;
  model_config.virtual_nodes = 4;
  model_config.diffusion_emb_dim = 32;
  model_config.temporal_emb_dim = 32;
  model_config.node_emb_dim = 8;
  model_config.adaptive_rank = 4;

  eval::DiffusionRunOptions run_options;
  run_options.diffusion_steps = 30;
  run_options.train.epochs = 25;
  run_options.train.lr = 2e-3f;
  run_options.train.mask_strategy = data::MaskStrategy::kPoint;
  run_options.train.on_epoch = [](int64_t epoch, double loss) {
    if (epoch % 5 == 0) std::printf("  epoch %2lld  loss %.4f\n",
                                    static_cast<long long>(epoch), loss);
  };
  run_options.impute.num_samples = 15;

  auto pristi = eval::MakePristiImputer(
      model_config, task.dataset.graph.adjacency, run_options, rng);
  std::printf("training PriSTI...\n");
  pristi->Fit(task, rng);

  // --- 3. Impute one test window probabilistically.
  data::Sample window = data::ExtractSamples(task, "test").front();
  diffusion::ImputationResult summary = pristi->ImputeSamples(window, 15, rng);

  std::printf("\nsensor 0, window starting at step %lld "
              "(values in raw units):\n",
              static_cast<long long>(window.start));
  std::printf("%6s %10s %10s %22s %s\n", "step", "truth", "median",
              "90% interval", "status");
  for (int64_t step = 0; step < task.window_len; ++step) {
    float truth_n = window.values.at({0, step});
    double mean0 = task.normalizer.mean(0);
    double std0 = task.normalizer.stddev(0);
    double truth = truth_n * std0 + mean0;
    double median = summary.median.at({0, step}) * std0 + mean0;
    double lo = summary.Quantile(0, step, 0.05) * std0 + mean0;
    double hi = summary.Quantile(0, step, 0.95) * std0 + mean0;
    const char* status = window.observed.at({0, step}) > 0.5f
                             ? "observed"
                             : (window.eval.at({0, step}) > 0.5f
                                    ? "imputed (scored)"
                                    : "imputed (orig. missing)");
    std::printf("%6lld %10.2f %10.2f      [%8.2f, %8.2f] %s\n",
                static_cast<long long>(step), truth, median, lo, hi, status);
  }

  // --- MAE over the whole test split.
  Rng eval_rng(13);
  eval::MethodResult result =
      eval::EvaluateFittedImputer(pristi.get(), task, eval_rng);
  std::printf("\ntest MAE %.3f  MSE %.3f (raw units)\n", result.mae,
              result.mse);
  return 0;
}
