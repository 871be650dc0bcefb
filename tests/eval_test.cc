// Tests for the experiment harness: metric plumbing in raw units, the
// diffusion adapter, node-restricted scoring, and the downstream forecaster.

#include "eval/harness.h"

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/simple.h"
#include "eval/forecaster.h"

namespace pristi::eval {
namespace {

namespace t = ::pristi::tensor;
using t::Tensor;

data::ImputationTask SmallTask(uint64_t seed = 5) {
  data::SyntheticConfig config;
  config.num_nodes = 8;
  config.num_steps = 480;
  config.steps_per_day = 24;
  config.original_missing_rate = 0.05;
  Rng rng(seed);
  auto dataset = data::GenerateSynthetic(config, rng);
  return data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                        data::TaskOptions{.window_len = 24, .stride = 12},
                        rng);
}

TEST(Harness, ReportsRawUnitErrors) {
  data::ImputationTask task = SmallTask();
  baselines::MeanImputer mean;
  Rng rng(1);
  MethodResult result = EvaluateImputer(&mean, task, rng);
  EXPECT_EQ(result.method, "MEAN");
  // Raw-unit MAE for a mean imputer should be on the order of the node
  // standard deviation of the planted signal (tens of units), definitely
  // not the normalized ~1.
  EXPECT_GT(result.mae, 1.0);
  EXPECT_LT(result.mae, 200.0);
  EXPECT_GT(result.mse, result.mae);
  EXPECT_GE(result.fit_seconds, 0.0);
}

TEST(Harness, BetterMethodScoresLower) {
  data::ImputationTask task = SmallTask(7);
  baselines::MeanImputer mean;
  baselines::LinearInterpImputer lin;
  Rng rng(2);
  MethodResult mean_result = EvaluateImputer(&mean, task, rng);
  MethodResult lin_result = EvaluateImputer(&lin, task, rng);
  EXPECT_LT(lin_result.mae, mean_result.mae);
}

TEST(Harness, CrpsOnlyWhenRequested) {
  data::ImputationTask task = SmallTask(9);
  baselines::MeanImputer mean;
  Rng rng(3);
  MethodResult no_crps = EvaluateImputer(&mean, task, rng);
  EXPECT_EQ(no_crps.crps, 0.0);
  EvaluateOptions crps_options;
  crps_options.crps_samples = 5;
  MethodResult with_crps = EvaluateImputer(&mean, task, rng, crps_options);
  // Point-mass CRPS equals the MAE, so normalized CRPS = MAE / mean |x|.
  EXPECT_GT(with_crps.crps, 0.0);
  EXPECT_LT(with_crps.crps, 1.5);
}

TEST(Harness, NodeRestrictedScoring) {
  data::ImputationTask task = SmallTask(11);
  baselines::MeanImputer mean;
  Rng rng(4);
  mean.Fit(task, rng);
  MethodResult all = EvaluateFittedImputer(&mean, task, rng);
  MethodResult restricted =
      EvaluateFittedImputer(&mean, task, rng, {.score_nodes = {2}});
  // Restricted scoring uses fewer entries, so values differ in general but
  // remain in a sane range.
  EXPECT_GT(restricted.mae, 0.0);
  EXPECT_LT(std::fabs(all.mae - restricted.mae), all.mae * 2.0);
}

TEST(Harness, DiffusionAdapterEndToEnd) {
  data::ImputationTask task = SmallTask(13);
  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.virtual_nodes = 3;
  config.diffusion_emb_dim = 16;
  config.temporal_emb_dim = 16;
  config.node_emb_dim = 8;
  config.adaptive_rank = 4;
  DiffusionRunOptions options;
  options.diffusion_steps = 20;
  options.train.epochs = 4;
  options.train.batch_size = 8;
  options.train.mask_strategy = data::MaskStrategy::kPoint;
  options.impute.num_samples = 3;
  Rng rng(5);
  auto pristi =
      MakePristiImputer(config, task.dataset.graph.adjacency, options, rng);
  EvaluateOptions crps_options;
  crps_options.crps_samples = 3;
  MethodResult result =
      EvaluateImputer(pristi.get(), task, rng, crps_options);
  EXPECT_EQ(result.method, "PriSTI");
  EXPECT_GT(result.mae, 0.0);
  EXPECT_GT(result.crps, 0.0);
  EXPECT_FALSE(pristi->train_losses().empty());
}

TEST(Forecaster, BeatsClimatologyOnSeasonalData) {
  // Train the GWN-lite forecaster on clean synthetic data; it must beat the
  // per-node climatology (predicting the node mean).
  data::SyntheticConfig config;
  config.num_nodes = 6;
  config.num_steps = 720;
  config.steps_per_day = 24;
  config.original_missing_rate = 0.0;
  Rng rng(6);
  auto dataset = data::GenerateSynthetic(config, rng);

  ForecastOptions options;
  options.input_len = 12;
  options.horizon = 12;
  options.epochs = 15;
  Rng train_rng(7);
  ForecastResult result = TrainAndEvaluateForecaster(
      dataset.values, dataset.graph, dataset.values, options, train_rng);

  // Climatology: per-node mean of the training portion.
  int64_t t_steps = dataset.num_steps, n = dataset.num_nodes;
  int64_t train_end = static_cast<int64_t>(t_steps * 0.7);
  int64_t test_begin = static_cast<int64_t>(t_steps * 0.8);
  double clim_err = 0;
  int64_t count = 0;
  for (int64_t node = 0; node < n; ++node) {
    double mean = 0;
    for (int64_t step = 0; step < train_end; ++step) {
      mean += dataset.values.at({step, node});
    }
    mean /= train_end;
    for (int64_t step = test_begin; step < t_steps; ++step) {
      clim_err += std::fabs(dataset.values.at({step, node}) - mean);
      ++count;
    }
  }
  double climatology_mae = clim_err / count;
  EXPECT_LT(result.mae, climatology_mae);
  EXPECT_GE(result.rmse, result.mae);
}

}  // namespace
}  // namespace pristi::eval

// ---------------------------------------------------------------------------
// Full-series imputation (Table V input path).
// ---------------------------------------------------------------------------

namespace pristi::eval {
namespace {

TEST(ImputeSeriesFn, FillsEveryEntryAndKeepsObserved) {
  data::ImputationTask task = SmallTask(77);
  baselines::MeanImputer mean;
  Rng rng(8);
  mean.Fit(task, rng);
  tensor::Tensor completed = ImputeSeries(&mean, task, rng);
  EXPECT_EQ(completed.shape(), task.dataset.values.shape());
  int64_t t_steps = task.dataset.num_steps, n = task.dataset.num_nodes;
  for (int64_t step = 0; step < t_steps; ++step) {
    for (int64_t node = 0; node < n; ++node) {
      EXPECT_TRUE(std::isfinite(completed.at({step, node})));
      if (task.model_observed_mask.at({step, node}) > 0.5f) {
        EXPECT_FLOAT_EQ(completed.at({step, node}),
                        task.dataset.values.at({step, node}));
      }
    }
  }
}

TEST(ImputeSeriesFn, MissingEntriesGetImputationNotTruth) {
  data::ImputationTask task = SmallTask(79);
  baselines::MeanImputer mean;
  Rng rng(9);
  mean.Fit(task, rng);
  tensor::Tensor completed = ImputeSeries(&mean, task, rng);
  // On withheld entries the mean imputer writes the node training mean, not
  // the ground truth; verify at least one such entry differs from truth.
  int64_t differing = 0;
  for (int64_t i = 0; i < completed.numel(); ++i) {
    if (task.eval_mask[i] > 0.5f &&
        std::fabs(completed[i] - task.dataset.values[i]) > 1e-3f) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(DiffusionAdapter, ImputeOptionsSwitchable) {
  data::ImputationTask task = SmallTask(81);
  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.virtual_nodes = 3;
  config.diffusion_emb_dim = 16;
  config.temporal_emb_dim = 16;
  config.node_emb_dim = 8;
  config.adaptive_rank = 4;
  DiffusionRunOptions options;
  options.diffusion_steps = 10;
  options.train.epochs = 1;
  Rng rng(10);
  auto model = MakePristiImputer(config, task.dataset.graph.adjacency,
                                 options, rng);
  model->Fit(task, rng);
  data::Sample window = data::ExtractSamples(task, "test").front();
  diffusion::ImputeOptions ddim{.num_samples = 2,
                                .sampler = diffusion::SamplerKind::kDdim,
                                .num_inference_steps = 5};
  model->set_impute_options(ddim);
  EXPECT_EQ(model->impute_options().sampler, diffusion::SamplerKind::kDdim);
  tensor::Tensor out = model->Impute(window, rng);
  EXPECT_EQ(out.shape(), window.values.shape());
}

// ImputeSamples hands back the median of exactly the samples it drew, so
// EvaluateFittedImputer can score MAE/MSE on it without recomputing it:
// bit-equal to FinalizeMedian over the returned samples, for the diffusion
// adapter and for the point-mass default.
void ExpectMedianOfItsSamples(const diffusion::ImputationResult& drawn,
                              int64_t num_samples) {
  ASSERT_EQ(static_cast<int64_t>(drawn.samples.size()), num_samples);
  diffusion::ImputationResult again;
  again.samples = drawn.samples;
  again.FinalizeMedian();
  ASSERT_EQ(drawn.median.shape(), again.median.shape());
  for (int64_t i = 0; i < again.median.numel(); ++i) {
    ASSERT_EQ(drawn.median[i], again.median[i]) << "entry " << i;
  }
}

TEST(Harness, ImputeSamplesReturnsTheMedianOfItsSamples) {
  data::ImputationTask task = SmallTask(83);
  data::Sample window = data::ExtractSamples(task, "test").front();
  Rng rng(12);
  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.virtual_nodes = 3;
  config.diffusion_emb_dim = 16;
  config.temporal_emb_dim = 16;
  config.node_emb_dim = 8;
  config.adaptive_rank = 4;
  DiffusionRunOptions options;
  options.diffusion_steps = 6;
  auto pristi =
      MakePristiImputer(config, task.dataset.graph.adjacency, options, rng);
  for (int64_t samples : {1, 4, 5}) {
    SCOPED_TRACE(::testing::Message() << samples << " samples");
    ExpectMedianOfItsSamples(pristi->ImputeSamples(window, samples, rng),
                             samples);
  }
  baselines::MeanImputer mean;
  mean.Fit(task, rng);
  ExpectMedianOfItsSamples(mean.ImputeSamples(window, 4, rng), 4);
}

}  // namespace
}  // namespace pristi::eval
