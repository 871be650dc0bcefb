// Tests for the baseline imputers: exactly solvable cases for the classic
// methods, training smoke + quality checks for the deep methods.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/csdi.h"
#include "baselines/factorization.h"
#include "baselines/kalman.h"
#include "baselines/regression.h"
#include "baselines/rnn.h"
#include "baselines/simple.h"
#include "baselines/vae.h"
#include "data/windows.h"
#include "diffusion/sharded_train.h"
#include "metrics/metrics.h"

namespace pristi::baselines {
namespace {

namespace t = ::pristi::tensor;
using t::Shape;
using t::Tensor;

// A small task reused across baseline tests.
data::ImputationTask SmallTask(uint64_t seed = 5,
                               data::MissingPattern pattern =
                                   data::MissingPattern::kPoint) {
  data::SyntheticConfig config;
  config.num_nodes = 8;
  config.num_steps = 480;
  config.steps_per_day = 24;
  config.original_missing_rate = 0.05;
  Rng rng(seed);
  auto dataset = data::GenerateSynthetic(config, rng);
  return data::MakeTask(std::move(dataset), pattern,
                        data::TaskOptions{.window_len = 24, .stride = 12},
                        rng);
}

// MAE of an imputer over the task's test split (normalized units).
double TestMae(Imputer* imputer, const data::ImputationTask& task,
               uint64_t seed = 77) {
  Rng rng(seed);
  metrics::ErrorAccumulator acc;
  for (const data::Sample& sample : data::ExtractSamples(task, "test")) {
    Tensor pred = imputer->Impute(sample, rng);
    acc.Add(pred, sample.values, sample.eval);
  }
  return acc.Mae();
}

TEST(MeanImputerTest, FillsOnlyMissingEntries) {
  data::ImputationTask task = SmallTask();
  MeanImputer imputer;
  Rng rng(1);
  imputer.Fit(task, rng);
  data::Sample sample = data::ExtractSamples(task, "test").front();
  Tensor out = imputer.Impute(sample, rng);
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (sample.observed[i] > 0.5f) {
      EXPECT_FLOAT_EQ(out[i], sample.values[i]);
    }
  }
}

TEST(MeanImputerTest, NearZeroInNormalizedSpace) {
  // The normalizer removes node means, so MEAN's fills should be ~0.
  data::ImputationTask task = SmallTask();
  MeanImputer imputer;
  Rng rng(2);
  imputer.Fit(task, rng);
  data::Sample sample = data::ExtractSamples(task, "test").front();
  Tensor out = imputer.Impute(sample, rng);
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (sample.observed[i] < 0.5f) {
      EXPECT_LT(std::fabs(out[i]), 0.3f);
    }
  }
}

TEST(DailyAverageTest, BeatsMeanOnSeasonalData) {
  data::ImputationTask task = SmallTask(7);
  MeanImputer mean;
  DailyAverageImputer da;
  Rng rng(3);
  mean.Fit(task, rng);
  da.Fit(task, rng);
  EXPECT_LT(TestMae(&da, task), TestMae(&mean, task));
}

TEST(KnnTest, UsesNeighbourValues) {
  data::ImputationTask task = SmallTask(9);
  KnnImputer knn(3);
  Rng rng(4);
  knn.Fit(task, rng);
  // On spatially correlated data KNN should beat MEAN.
  MeanImputer mean;
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&knn, task), TestMae(&mean, task));
}

TEST(LinInterpTest, ExactOnLinearGaps) {
  LinearInterpImputer imputer;
  data::Sample sample;
  sample.values = Tensor({1, 5}, {0, 1, 2, 3, 4});
  sample.observed = Tensor({1, 5}, {1, 0, 0, 0, 1});
  sample.eval = Tensor({1, 5}, {0, 1, 1, 1, 0});
  Rng rng(5);
  Tensor out = imputer.Impute(sample, rng);
  EXPECT_TRUE(t::AllClose(out, sample.values, 1e-5f));
}

// ---------------------------------------------------------------------------
// Kalman
// ---------------------------------------------------------------------------

TEST(KalmanTest, ConstantSeriesRecovered) {
  std::vector<float> values = {2, 2, 0, 0, 2, 2};
  std::vector<bool> observed = {true, true, false, false, true, true};
  std::vector<float> smoothed =
      KalmanImputer::SmoothSeries(values, observed, 0.05, 0.5);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(smoothed[i], 2.0f, 0.15f) << "index " << i;
  }
}

TEST(KalmanTest, SmootherInterpolatesBetweenLevels) {
  std::vector<float> values = {0, 0, 0, 0, 4, 4};
  std::vector<bool> observed = {true, true, false, false, true, true};
  std::vector<float> smoothed =
      KalmanImputer::SmoothSeries(values, observed, 0.5, 0.2);
  // The gap estimates should rise monotonically between the two levels.
  EXPECT_GT(smoothed[3], smoothed[2]);
  EXPECT_GT(smoothed[2], -0.5f);
  EXPECT_LT(smoothed[3], 4.5f);
}

TEST(KalmanTest, BeatsMeanOnSmoothData) {
  data::ImputationTask task = SmallTask(11);
  KalmanImputer kalman;
  MeanImputer mean;
  Rng rng(6);
  kalman.Fit(task, rng);
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&kalman, task), TestMae(&mean, task));
}

// ---------------------------------------------------------------------------
// VAR / MICE
// ---------------------------------------------------------------------------

TEST(VarTest, LearnsPlantedAutoregression) {
  data::ImputationTask task = SmallTask(13);
  VarImputer var;
  MeanImputer mean;
  Rng rng(7);
  var.Fit(task, rng);
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&var, task), TestMae(&mean, task));
}

TEST(MiceTest, ExploitsCrossNodeStructure) {
  data::ImputationTask task = SmallTask(15);
  MiceImputer mice;
  MeanImputer mean;
  Rng rng(8);
  mice.Fit(task, rng);
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&mice, task), TestMae(&mean, task));
}

TEST(MiceTest, PreservesObservedEntries) {
  data::ImputationTask task = SmallTask(17);
  MiceImputer mice;
  Rng rng(9);
  mice.Fit(task, rng);
  data::Sample sample = data::ExtractSamples(task, "test").front();
  Tensor out = mice.Impute(sample, rng);
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (sample.observed[i] > 0.5f) {
      EXPECT_FLOAT_EQ(out[i], sample.values[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Factorization
// ---------------------------------------------------------------------------

TEST(TrmfTest, RecoversLowRankMatrix) {
  // Plant an exactly rank-2 matrix, hide 30%, require close recovery.
  Rng rng(10);
  int64_t n = 10, l = 20, r = 2;
  Tensor w = Tensor::Randn({n, r}, rng);
  Tensor f = Tensor::Randn({r, l}, rng);
  Tensor x = t::MatMul(w, f);
  Tensor mask = Tensor::Ones({n, l});
  for (int64_t i = 0; i < mask.numel(); ++i) {
    if (rng.Bernoulli(0.3)) mask[i] = 0.0f;
  }
  FactorizationOptions options;
  options.rank = 4;
  options.iterations = 40;
  options.ridge = 1e-3;
  options.temporal_reg = 0.0;
  Tensor recon = TrmfImputer::FactorizeWindow(x, mask, options, rng);
  double err = 0;
  int64_t cnt = 0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (mask[i] < 0.5f) {
      err += std::fabs(recon[i] - x[i]);
      ++cnt;
    }
  }
  EXPECT_LT(err / cnt, 0.25) << "mean abs error on hidden entries";
}

TEST(TrmfTest, TemporalRegularizationSmoothsFactors) {
  data::ImputationTask task = SmallTask(19, data::MissingPattern::kBlock);
  TrmfImputer trmf;
  MeanImputer mean;
  Rng rng(11);
  trmf.Fit(task, rng);
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&trmf, task), TestMae(&mean, task));
}

TEST(BatfTest, RecoversAdditiveStructure) {
  // X[i, t] = a_i + b_t exactly; BATF's bias terms should nail hidden cells.
  int64_t n = 6, l = 12;
  Tensor x({n, l});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t step = 0; step < l; ++step) {
      x.at({i, step}) = static_cast<float>(0.3 * i - 0.2 * step + 1.0);
    }
  }
  Rng rng(12);
  Tensor mask = Tensor::Ones({n, l});
  for (int64_t i = 0; i < mask.numel(); ++i) {
    if (rng.Bernoulli(0.25)) mask[i] = 0.0f;
  }
  data::Sample sample;
  sample.values = x;
  sample.observed = mask;
  sample.eval = t::AddScalar(t::Neg(mask), 1.0f);
  BatfImputer batf;
  Tensor out = batf.Impute(sample, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (mask[i] < 0.5f) {
      EXPECT_NEAR(out[i], x[i], 0.35f);
    }
  }
}

// ---------------------------------------------------------------------------
// Deep baselines (training smoke + quality)
// ---------------------------------------------------------------------------

RecurrentOptions QuickRecurrentOptions() {
  RecurrentOptions options;
  options.hidden = 16;
  options.epochs = 8;
  options.batch_size = 8;
  return options;
}

TEST(BritsTest, TrainedBeatsMean) {
  data::ImputationTask task = SmallTask(21);
  Rng rng(13);
  BritsImputer brits(task.dataset.num_nodes, QuickRecurrentOptions(), rng);
  brits.Fit(task, rng);
  MeanImputer mean;
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&brits, task), TestMae(&mean, task));
}

TEST(GrinTest, TrainedBeatsMean) {
  data::ImputationTask task = SmallTask(23);
  Rng rng(14);
  GrinImputer grin(task.dataset.num_nodes, task.dataset.graph.adjacency,
                   QuickRecurrentOptions(), rng);
  grin.Fit(task, rng);
  MeanImputer mean;
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&grin, task), TestMae(&mean, task));
}

TEST(GrinTest, ImputesFullyUnobservedSensorFinitely) {
  // Sensor-failure setting (paper RQ5): GRIN must still produce sane values
  // for a node with zero observations, using only geography.
  data::ImputationTask task = SmallTask(25);
  Rng rng(15);
  GrinImputer grin(task.dataset.num_nodes, task.dataset.graph.adjacency,
                   QuickRecurrentOptions(), rng);
  grin.Fit(task, rng);
  data::Sample sample = data::ExtractSamples(task, "test").front();
  for (int64_t step = 0; step < sample.values.dim(1); ++step) {
    sample.observed.at({0, step}) = 0.0f;  // kill node 0 entirely
  }
  Tensor out = grin.Impute(sample, rng);
  for (int64_t step = 0; step < out.dim(1); ++step) {
    EXPECT_TRUE(std::isfinite(out.at({0, step})));
    EXPECT_LT(std::fabs(out.at({0, step})), 10.0f);
  }
}

TEST(RgainTest, AdversarialTrainingStillImputes) {
  data::ImputationTask task = SmallTask(27);
  Rng rng(16);
  RecurrentOptions options = QuickRecurrentOptions();
  options.epochs = 6;
  RgainImputer rgain(task.dataset.num_nodes, options, rng);
  rgain.Fit(task, rng);
  MeanImputer mean;
  mean.Fit(task, rng);
  EXPECT_LT(TestMae(&rgain, task), 1.5 * TestMae(&mean, task));
}

VaeOptions QuickVaeOptions() {
  VaeOptions options;
  options.hidden = 16;
  options.latent = 6;
  options.epochs = 10;
  return options;
}

TEST(VrinTest, ProducesSpreadInSamples) {
  data::ImputationTask task = SmallTask(29);
  Rng rng(17);
  VrinImputer vrin(task.dataset.num_nodes, task.window_len, QuickVaeOptions(),
                   rng);
  vrin.Fit(task, rng);
  data::Sample sample = data::ExtractSamples(task, "test").front();
  std::vector<Tensor> samples = vrin.ImputeSamples(sample, 8, rng);
  ASSERT_EQ(samples.size(), 8u);
  // Find a missing entry and confirm sample spread > 0 there.
  double max_spread = 0.0;
  for (int64_t i = 0; i < sample.values.numel(); ++i) {
    if (sample.observed[i] > 0.5f) continue;
    float lo = samples[0][i], hi = samples[0][i];
    for (const Tensor& s : samples) {
      lo = std::min(lo, s[i]);
      hi = std::max(hi, s[i]);
    }
    max_spread = std::max(max_spread, static_cast<double>(hi - lo));
  }
  EXPECT_GT(max_spread, 1e-4);
}

TEST(GpVaeTest, TrainedBeatsUntrained) {
  data::ImputationTask task = SmallTask(31);
  Rng rng_a(18), rng_b(18);
  GpVaeImputer trained(task.dataset.num_nodes, QuickVaeOptions(), rng_a);
  GpVaeImputer untrained(task.dataset.num_nodes, QuickVaeOptions(), rng_b);
  Rng fit_rng(19);
  trained.Fit(task, fit_rng);
  EXPECT_LT(TestMae(&trained, task), TestMae(&untrained, task));
}

// ---------------------------------------------------------------------------
// CSDI
// ---------------------------------------------------------------------------

TEST(CsdiTest, ForwardShapeAndGrads) {
  CsdiConfig config;
  config.num_nodes = 5;
  config.window_len = 6;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.diffusion_emb_dim = 16;
  config.temporal_emb_dim = 16;
  config.node_emb_dim = 8;
  Rng rng(20);
  CsdiModel model(config, rng);
  diffusion::DiffusionBatch batch;
  batch.cond_values = Tensor::Randn({2, 5, 6}, rng);
  batch.cond_mask = Tensor::Ones({2, 5, 6});
  batch.interpolated = batch.cond_values;
  batch.target_mask = Tensor::Zeros({2, 5, 6});
  Tensor noisy = Tensor::Randn({2, 5, 6}, rng);
  auto out = model.PredictNoise(noisy, batch, 3);
  EXPECT_EQ(out.value().shape(), (Shape{2, 5, 6}));
  autograd::SumAll(autograd::Square(out)).Backward();
  for (auto& [name, param] : model.NamedParameters()) {
    EXPECT_TRUE(param.has_grad()) << name;
  }
}

// CSDI's side information (U plus cond_mask) is step-invariant: inside a
// reverse run it comes from the step cache, bit-identical to recomputing it.
TEST(CsdiTest, StepCacheHitIsBitwiseEqualToUncachedCall) {
  CsdiConfig config;
  config.num_nodes = 5;
  config.window_len = 6;
  config.channels = 8;
  config.heads = 2;
  config.layers = 2;
  config.diffusion_emb_dim = 16;
  config.temporal_emb_dim = 16;
  config.node_emb_dim = 8;
  Rng rng(21);
  CsdiModel model(config, rng);
  diffusion::DiffusionBatch batch;
  batch.cond_mask = Tensor::Zeros({2, 5, 6});
  for (int64_t i = 0; i < batch.cond_mask.numel(); ++i) {
    batch.cond_mask[i] = rng.Bernoulli(0.6) ? 1.0f : 0.0f;
  }
  batch.cond_values = t::Mul(Tensor::Randn({2, 5, 6}, rng), batch.cond_mask);
  batch.interpolated = batch.cond_values;
  batch.target_mask = t::Sub(Tensor::Ones({2, 5, 6}), batch.cond_mask);
  diffusion::DiffusionBatch cached = batch;
  cached.step_cache = std::make_shared<diffusion::StepInvariantCache>();

  autograd::NoGradGuard no_grad;
  for (int64_t step : {9, 6, 3, 1}) {
    Tensor noisy = Tensor::Randn({2, 5, 6}, rng);
    Tensor uncached = model.PredictNoise(noisy, batch, step).value();
    Tensor reused = model.PredictNoise(noisy, cached, step).value();
    ASSERT_EQ(uncached.numel(), reused.numel());
    EXPECT_EQ(std::memcmp(uncached.data(), reused.data(),
                          static_cast<size_t>(uncached.numel()) *
                              sizeof(float)),
              0)
        << "t=" << step;
    EXPECT_EQ(cached.step_cache->owner, &model);
    EXPECT_EQ(cached.step_cache->tensors.size(), 1u);
  }
}

// Masked denoising MSE of `model` on the task's test windows with every
// draw fixed: each (window, t) pair builds its leaf from its own Rng, so two
// calls differ only through the model's weights.
double FixedDrawTestLoss(diffusion::ConditionalNoisePredictor* model,
                         const diffusion::NoiseSchedule& schedule,
                         const data::ImputationTask& task) {
  autograd::NoGradGuard no_grad;
  std::vector<data::Sample> windows = data::ExtractSamples(task, "test");
  double loss_sum = 0.0;
  int64_t count = 0;
  for (int64_t w = 0; w < static_cast<int64_t>(windows.size()); ++w) {
    for (int64_t step : {3, 10, 20, 30, 40, 48}) {
      Rng rng(static_cast<uint64_t>(1000 * w + step));
      diffusion::LeafStep leaf = diffusion::BuildLeafStep(
          windows, w, data::MaskStrategy::kPoint, schedule, step, rng);
      Tensor eps_hat = model->PredictNoise(leaf.noisy, leaf.batch, step)
                           .value();
      Tensor diff = t::Sub(eps_hat, leaf.eps_target);
      loss_sum += t::SumAll(t::Mul(t::Mul(diff, diff),
                                   leaf.batch.target_mask)) /
                  std::max(1.0f, leaf.mask_sum);
      ++count;
    }
  }
  return loss_sum / static_cast<double>(count);
}

// Training must lower the held-out denoising loss. The per-epoch training
// loss is no signal at this budget: each epoch is dominated by the one
// diffusion step drawn per minibatch, so it rises as often as it falls.
TEST(CsdiTest, TrainingLowersFixedDrawTestLoss) {
  data::ImputationTask task = SmallTask(33);
  CsdiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.diffusion_emb_dim = 16;
  config.temporal_emb_dim = 16;
  config.node_emb_dim = 8;
  Rng rng(21);
  CsdiModel model(config, rng);
  auto schedule = diffusion::NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  diffusion::TrainOptions options;
  options.epochs = 12;
  options.batch_size = 8;
  options.lr = 2e-3f;
  options.mask_strategy = data::MaskStrategy::kPoint;
  double before = FixedDrawTestLoss(&model, schedule, task);
  diffusion::TrainDiffusionModel(&model, schedule, task, options, rng);
  double after = FixedDrawTestLoss(&model, schedule, task);
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace pristi::baselines
