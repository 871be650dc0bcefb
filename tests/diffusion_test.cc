// Tests for the DDPM substrate: schedules, q-sampling, the imputation
// engine's plumbing (conditioning, masking, sampling statistics).

#include "diffusion/ddpm.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "diffusion/schedule.h"

namespace pristi::diffusion {
namespace {

namespace t = ::pristi::tensor;
using t::Shape;
using t::Tensor;

TEST(Schedule, QuadraticEndpointsMatchPaper) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  EXPECT_EQ(schedule.num_steps(), 50);
  EXPECT_NEAR(schedule.beta(1), 1e-4f, 1e-7f);
  EXPECT_NEAR(schedule.beta(50), 0.2f, 1e-6f);
}

TEST(Schedule, BetaMonotoneIncreasing) {
  for (auto schedule : {NoiseSchedule::Quadratic(30, 1e-4f, 0.2f),
                        NoiseSchedule::Linear(30, 1e-4f, 0.2f)}) {
    for (int64_t step = 2; step <= 30; ++step) {
      EXPECT_GT(schedule.beta(step), schedule.beta(step - 1));
    }
  }
}

TEST(Schedule, AlphaBarDecaysToNearZero) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  EXPECT_NEAR(schedule.alpha_bar(0), 1.0f, 1e-9f);
  for (int64_t step = 1; step <= 50; ++step) {
    EXPECT_LT(schedule.alpha_bar(step), schedule.alpha_bar(step - 1));
  }
  // After the full chain the signal should be almost destroyed.
  EXPECT_LT(schedule.alpha_bar(50), 0.05f);
}

TEST(Schedule, QuadraticMatchesEq13ClosedForm) {
  const int64_t kT = 20;
  const float b1 = 1e-4f, bT = 0.2f;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(kT, b1, bT);
  for (int64_t step = 1; step <= kT; ++step) {
    float expected = std::pow(
        static_cast<float>(kT - step) / (kT - 1) * std::sqrt(b1) +
            static_cast<float>(step - 1) / (kT - 1) * std::sqrt(bT),
        2.0f);
    EXPECT_NEAR(schedule.beta(step), expected, 1e-7f) << "t=" << step;
  }
}

TEST(Schedule, PosteriorVariancePositiveAndBounded) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  for (int64_t step = 2; step <= 50; ++step) {
    EXPECT_GT(schedule.sigma2(step), 0.0f);
    EXPECT_LE(schedule.sigma2(step), schedule.beta(step) + 1e-7f);
  }
}

TEST(QSampleFn, InterpolatesSignalAndNoise) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  Rng rng(1);
  Tensor x0 = Tensor::Full({4, 6}, 2.0f);
  Tensor eps = Tensor::Zeros({4, 6});
  // With zero noise, q-sample is a pure scaling by sqrt(alpha_bar).
  Tensor x1 = QSample(x0, eps, schedule, 1);
  EXPECT_NEAR(x1[0], 2.0f * std::sqrt(schedule.alpha_bar(1)), 1e-5f);
  Tensor x50 = QSample(x0, eps, schedule, 50);
  EXPECT_NEAR(x50[0], 2.0f * std::sqrt(schedule.alpha_bar(50)), 1e-5f);
  EXPECT_LT(std::fabs(x50[0]), std::fabs(x1[0]));
}

TEST(QSampleFn, TerminalDistributionIsStandardNormal) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  Rng rng(2);
  Tensor x0 = Tensor::Full({100, 100}, 3.0f);
  Tensor eps = Tensor::Randn({100, 100}, rng);
  Tensor xt = QSample(x0, eps, schedule, 50);
  float mean = t::MeanAll(xt);
  float var = t::MeanAll(t::Square(t::AddScalar(xt, -mean)));
  // alpha_bar(50) ~ 0.003 -> mean ~ 3*0.055 ~ 0.17, variance ~ 1.
  EXPECT_NEAR(mean, 3.0f * std::sqrt(schedule.alpha_bar(50)), 0.05f);
  EXPECT_NEAR(var, 1.0f - schedule.alpha_bar(50), 0.05f);
}

TEST(SingleWindowBatch, BuildsConsistentConditioning) {
  Tensor values({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor cond_mask({2, 4}, {1, 0, 0, 1, 1, 1, 0, 0});
  Tensor target_mask({2, 4}, {0, 1, 1, 0, 0, 0, 1, 0});
  DiffusionBatch batch = MakeSingleWindowBatch(values, cond_mask, target_mask);
  EXPECT_EQ(batch.cond_values.shape(), (Shape{1, 2, 4}));
  // Conditional values zeroed where unobserved.
  EXPECT_FLOAT_EQ(batch.cond_values.at({0, 0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(batch.cond_values.at({0, 0, 0}), 1.0f);
  // Interpolation fills the gap between observed 1 and 4 linearly.
  EXPECT_NEAR(batch.interpolated.at({0, 0, 1}), 2.0f, 1e-5f);
  EXPECT_NEAR(batch.interpolated.at({0, 0, 2}), 3.0f, 1e-5f);
}

// A trivial predictor (always zero noise, no parameters) to exercise the
// engine independently of any real model.
class ZeroPredictor : public ConditionalNoisePredictor {
 public:
  Variable PredictNoise(const Tensor& noisy, const DiffusionBatch& batch,
                        int64_t) override {
    (void)batch;
    return autograd::Constant(Tensor::Zeros(noisy.shape()));
  }
  std::vector<Variable> Parameters() override { return {}; }
  void ZeroGrad() override {}
};

data::Sample MakeSample(Rng& rng, int64_t n = 4, int64_t l = 8) {
  data::Sample sample;
  sample.values = Tensor::Randn({n, l}, rng);
  sample.observed = Tensor::Ones({n, l});
  sample.eval = Tensor::Zeros({n, l});
  // Hide a few entries.
  sample.observed.at({0, 2}) = 0.0f;
  sample.observed.at({1, 5}) = 0.0f;
  sample.observed.at({3, 0}) = 0.0f;
  return sample;
}

TEST(ImputeWindowFn, PreservesObservedEntriesExactly) {
  Rng rng(3);
  data::Sample sample = MakeSample(rng);
  ZeroPredictor model;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(10, 1e-4f, 0.2f);
  ImputationResult result =
      ImputeWindow(&model, schedule, sample, {.num_samples = 5}, rng);
  EXPECT_EQ(result.samples.size(), 5u);
  for (const Tensor& generated : result.samples) {
    for (int64_t node = 0; node < 4; ++node) {
      for (int64_t step = 0; step < 8; ++step) {
        if (sample.observed.at({node, step}) > 0.5f) {
          EXPECT_FLOAT_EQ(generated.at({node, step}),
                          sample.values.at({node, step}));
        }
      }
    }
  }
}

TEST(ImputeWindowFn, MedianAndQuantilesOrdered) {
  Rng rng(4);
  data::Sample sample = MakeSample(rng);
  ZeroPredictor model;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(10, 1e-4f, 0.2f);
  ImputationResult result =
      ImputeWindow(&model, schedule, sample, {.num_samples = 11}, rng);
  EXPECT_EQ(result.median.shape(), (Shape{4, 8}));
  float q05 = result.Quantile(0, 2, 0.05);
  float q50 = result.Quantile(0, 2, 0.5);
  float q95 = result.Quantile(0, 2, 0.95);
  EXPECT_LE(q05, q50);
  EXPECT_LE(q50, q95);
  EXPECT_FLOAT_EQ(result.median.at({0, 2}), q50);
}

TEST(ImputeWindowFn, DeterministicGivenSeed) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(10, 1e-4f, 0.2f);
  ZeroPredictor model;
  Rng data_rng(5);
  data::Sample sample = MakeSample(data_rng);
  Rng rng_a(42), rng_b(42);
  ImputationResult a =
      ImputeWindow(&model, schedule, sample, {.num_samples = 3}, rng_a);
  ImputationResult b =
      ImputeWindow(&model, schedule, sample, {.num_samples = 3}, rng_b);
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_TRUE(t::AllClose(a.samples[i], b.samples[i], 0.0f, 0.0f));
  }
}

// Predicts half the conditional values, so anything that leaks into
// cond_values reaches every chain.
class ConditionEchoPredictor : public ConditionalNoisePredictor {
 public:
  Variable PredictNoise(const Tensor& noisy, const DiffusionBatch& batch,
                        int64_t) override {
    (void)noisy;
    return autograd::Constant(t::MulScalar(batch.cond_values, 0.5f));
  }
  std::vector<Variable> Parameters() override { return {}; }
  void ZeroGrad() override {}
};

// A value at an unobserved cell is never read: a NaN there (NaN * 0 = NaN
// under a plain multiply) must come back exactly as a 0.0 would.
TEST(ImputeWindowFn, NanAtUnobservedCellIsIgnored) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(10, 1e-4f, 0.2f);
  ConditionEchoPredictor model;
  Rng data_rng(6);
  data::Sample zeroed = MakeSample(data_rng);
  ASSERT_EQ(zeroed.observed.at({1, 5}), 0.0f);
  zeroed.values.at({1, 5}) = 0.0f;
  data::Sample poisoned = zeroed;
  poisoned.values.at({1, 5}) = std::numeric_limits<float>::quiet_NaN();
  for (bool sequential : {false, true}) {
    SCOPED_TRACE(sequential ? "sequential" : "batched");
    ImputeOptions options{.num_samples = 3, .sequential_fallback = sequential};
    Rng rng_a(42), rng_b(42);
    ImputationResult a = ImputeWindow(&model, schedule, zeroed, options, rng_a);
    ImputationResult b =
        ImputeWindow(&model, schedule, poisoned, options, rng_b);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    const size_t bytes =
        sizeof(float) * static_cast<size_t>(a.median.numel());
    for (size_t i = 0; i < a.samples.size(); ++i) {
      EXPECT_EQ(std::memcmp(a.samples[i].data(), b.samples[i].data(), bytes),
                0)
          << "sample " << i;
    }
    EXPECT_EQ(std::memcmp(a.median.data(), b.median.data(), bytes), 0);
  }
}

TEST(ImputeWindowFn, ZeroPredictorSamplesLookGaussianOnTargets) {
  // With eps_hat = 0 the sampler just scales noise; withheld entries should
  // have roughly zero mean across many samples.
  Rng rng(6);
  data::Sample sample = MakeSample(rng);
  ZeroPredictor model;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(20, 1e-4f, 0.2f);
  // Average over every withheld entry as well as the samples so the check
  // has statistical margin (a single entry's 200-sample mean sits within
  // ~2 sigma of the 0.3 bound and flips on benign RNG-stream changes).
  const int64_t kSamples = 400;
  ImputationResult result =
      ImputeWindow(&model, schedule, sample, {.num_samples = kSamples}, rng);
  double sum = 0;
  int64_t count = 0;
  for (const Tensor& s : result.samples) {
    for (int64_t node = 0; node < 4; ++node) {
      for (int64_t step = 0; step < 8; ++step) {
        if (sample.observed.at({node, step}) < 0.5f) {
          sum += s.at({node, step});
          ++count;
        }
      }
    }
  }
  EXPECT_EQ(count, 3 * kSamples);
  EXPECT_NEAR(sum / count, 0.0, 0.25);
}

}  // namespace
}  // namespace pristi::diffusion

// ---------------------------------------------------------------------------
// DDIM sampling and training-step options (added reduced-scale features).
// ---------------------------------------------------------------------------

namespace pristi::diffusion {
namespace {

namespace t2 = ::pristi::tensor;

class ZeroPredictor2 : public ConditionalNoisePredictor {
 public:
  Variable PredictNoise(const Tensor& noisy, const DiffusionBatch&,
                        int64_t) override {
    return autograd::Constant(Tensor::Zeros(noisy.shape()));
  }
  std::vector<Variable> Parameters() override { return {}; }
  void ZeroGrad() override {}
};

data::Sample MakeSample2(Rng& rng) {
  data::Sample sample;
  sample.values = Tensor::Randn({4, 8}, rng);
  sample.observed = Tensor::Ones({4, 8});
  sample.observed.at({0, 2}) = 0.0f;
  sample.observed.at({2, 6}) = 0.0f;
  sample.eval = Tensor::Zeros({4, 8});
  return sample;
}

TEST(DdimSampling, PreservesObservedAndIsDeterministicGivenSeed) {
  Rng data_rng(41);
  data::Sample sample = MakeSample2(data_rng);
  ZeroPredictor2 model;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(20, 1e-4f, 0.2f);
  ImputeOptions options{.num_samples = 3, .sampler = SamplerKind::kDdim};
  Rng rng_a(5), rng_b(5);
  ImputationResult a = ImputeWindow(&model, schedule, sample, options, rng_a);
  ImputationResult b = ImputeWindow(&model, schedule, sample, options, rng_b);
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_TRUE(t2::AllClose(a.samples[i], b.samples[i], 0.0f, 0.0f));
    EXPECT_FLOAT_EQ(a.samples[i].at({0, 0}), sample.values.at({0, 0}));
  }
}

TEST(DdimSampling, StrideSkipsSteps) {
  // With eta = 0 and a zero predictor, DDIM shrinks the initial noise by
  // sqrt(alpha_bar at the final step) deterministically; few-step variants
  // must produce finite, bounded values and run with fewer model calls.
  Rng data_rng(42);
  data::Sample sample = MakeSample2(data_rng);
  ZeroPredictor2 model;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(30, 1e-4f, 0.2f);
  for (int64_t steps : {0, 15, 10, 6}) {
    Rng rng(7);
    ImputationResult result = ImputeWindow(
        &model, schedule, sample,
        {.num_samples = 2, .sampler = SamplerKind::kDdim,
         .num_inference_steps = steps},
        rng);
    for (const Tensor& s : result.samples) {
      for (int64_t i = 0; i < s.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(s[i]));
        EXPECT_LT(std::fabs(s[i]), 50.0f);
      }
    }
  }
}

TEST(TrainingOptions, HighTBiasStillTrains) {
  // Smoke test: the biased step sampler must not break training plumbing.
  data::SyntheticConfig config;
  config.num_nodes = 4;
  config.num_steps = 120;
  config.original_missing_rate = 0.0;
  Rng rng(43);
  auto dataset = data::GenerateSynthetic(config, rng);
  auto task = data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                             data::TaskOptions{.window_len = 8, .stride = 8},
                             rng);
  ZeroPredictor2 model;  // no parameters; loop must still run
  NoiseSchedule schedule = NoiseSchedule::Quadratic(10, 1e-4f, 0.2f);
  TrainOptions options;
  options.epochs = 2;
  options.high_t_bias = 0.7;
  auto losses = TrainDiffusionModel(&model, schedule, task, options, rng);
  EXPECT_EQ(losses.size(), 2u);
  for (double loss : losses) EXPECT_GT(loss, 0.0);
}

}  // namespace
}  // namespace pristi::diffusion
