// Tests for the PriSTI model: forward shapes, gradient flow, ablation
// variants, checkpointing, and end-to-end training/imputation smoke tests.

#include "pristi/pristi_model.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/sampler.h"
#include "graph/adjacency.h"

namespace pristi::core {
namespace {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;
using ::pristi::diffusion::DiffusionBatch;
using ::pristi::diffusion::NoiseSchedule;
using t::Shape;
using t::Tensor;

PristiConfig TinyConfig(int64_t n = 6, int64_t l = 8) {
  PristiConfig config;
  config.num_nodes = n;
  config.window_len = l;
  config.channels = 8;
  config.heads = 2;
  config.layers = 2;
  config.virtual_nodes = 3;
  config.diffusion_emb_dim = 16;
  config.temporal_emb_dim = 16;
  config.node_emb_dim = 8;
  config.adaptive_rank = 4;
  return config;
}

Tensor TestAdjacency(int64_t n, uint64_t seed = 9) {
  Rng rng(seed);
  return graph::BuildSensorGraph(n, rng).adjacency;
}

DiffusionBatch RandomBatch(int64_t b, int64_t n, int64_t l, Rng& rng) {
  DiffusionBatch batch;
  Tensor values = Tensor::Randn({b, n, l}, rng);
  Tensor mask = Tensor::Zeros({b, n, l});
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.Bernoulli(0.7) ? 1.0f : 0.0f;
  }
  batch.cond_mask = mask;
  batch.cond_values = t::Mul(values, mask);
  // Per-sample linear interpolation.
  batch.interpolated = Tensor({b, n, l});
  for (int64_t bi = 0; bi < b; ++bi) {
    Tensor v = t::SliceAxis(values, 0, bi, 1).Reshaped({n, l});
    Tensor m = t::SliceAxis(mask, 0, bi, 1).Reshaped({n, l});
    Tensor interp = data::LinearInterpolate(v, m);
    std::copy(interp.data(), interp.data() + n * l,
              batch.interpolated.data() + bi * n * l);
  }
  batch.target_mask = Tensor::Zeros({b, n, l});
  for (int64_t i = 0; i < batch.target_mask.numel(); ++i) {
    if (mask[i] < 0.5f) batch.target_mask[i] = 1.0f;
  }
  return batch;
}

TEST(LayoutHelpers, TemporalAndSpatialRoundTrip) {
  Rng rng(1);
  Tensor x = Tensor::Randn({2, 3, 4, 5}, rng);
  auto v = ag::Constant(x);
  auto tflat = FlattenTemporal(v);
  EXPECT_EQ(tflat.value().shape(), (Shape{6, 4, 5}));
  EXPECT_TRUE(t::AllClose(UnflattenTemporal(tflat, 2, 3).value(), x));
  auto sflat = FlattenSpatial(v);
  EXPECT_EQ(sflat.value().shape(), (Shape{8, 3, 5}));
  EXPECT_TRUE(t::AllClose(UnflattenSpatial(sflat, 2, 4).value(), x));
}

TEST(PristiModelTest, ForwardShape) {
  Rng rng(2);
  PristiConfig config = TinyConfig();
  PristiModel model(config, TestAdjacency(config.num_nodes), rng);
  Rng data_rng(3);
  DiffusionBatch batch =
      RandomBatch(2, config.num_nodes, config.window_len, data_rng);
  Tensor noisy = Tensor::Randn({2, config.num_nodes, config.window_len},
                               data_rng);
  auto eps_hat = model.PredictNoise(noisy, batch, 5);
  EXPECT_EQ(eps_hat.value().shape(),
            (Shape{2, config.num_nodes, config.window_len}));
  for (int64_t i = 0; i < eps_hat.value().numel(); ++i) {
    EXPECT_TRUE(std::isfinite(eps_hat.value()[i]));
  }
}

TEST(PristiModelTest, GradientsReachEveryParameter) {
  Rng rng(4);
  PristiConfig config = TinyConfig(5, 6);
  config.layers = 1;
  PristiModel model(config, TestAdjacency(5), rng);
  Rng data_rng(5);
  DiffusionBatch batch = RandomBatch(1, 5, 6, data_rng);
  Tensor noisy = Tensor::Randn({1, 5, 6}, data_rng);
  auto eps_hat = model.PredictNoise(noisy, batch, 3);
  ag::SumAll(ag::Square(eps_hat)).Backward();
  int64_t with_grad = 0, total = 0;
  for (auto& [name, param] : model.NamedParameters()) {
    ++total;
    if (param.has_grad()) ++with_grad;
  }
  // Everything except (possibly) unused-by-config parameters must get grads.
  EXPECT_EQ(with_grad, total);
  EXPECT_GT(total, 20);
}

TEST(PristiModelTest, DiffusionStepChangesOutput) {
  Rng rng(6);
  PristiConfig config = TinyConfig(4, 6);
  PristiModel model(config, TestAdjacency(4), rng);
  Rng data_rng(7);
  DiffusionBatch batch = RandomBatch(1, 4, 6, data_rng);
  Tensor noisy = Tensor::Randn({1, 4, 6}, data_rng);
  Tensor at_t1 = model.PredictNoise(noisy, batch, 1).value();
  Tensor at_t9 = model.PredictNoise(noisy, batch, 9).value();
  EXPECT_FALSE(t::AllClose(at_t1, at_t9, 1e-4f));
}

TEST(PristiModelTest, ConditioningChangesOutput) {
  Rng rng(8);
  PristiConfig config = TinyConfig(4, 6);
  PristiModel model(config, TestAdjacency(4), rng);
  Rng data_rng(9);
  DiffusionBatch batch_a = RandomBatch(1, 4, 6, data_rng);
  DiffusionBatch batch_b = RandomBatch(1, 4, 6, data_rng);
  Tensor noisy = Tensor::Randn({1, 4, 6}, data_rng);
  Tensor out_a = model.PredictNoise(noisy, batch_a, 4).value();
  Tensor out_b = model.PredictNoise(noisy, batch_b, 4).value();
  EXPECT_FALSE(t::AllClose(out_a, out_b, 1e-4f));
}

// Every ablation variant must construct and produce the right shape.
struct AblationSpec {
  const char* name;
  void (*apply)(PristiConfig&);
};

class AblationTest : public ::testing::TestWithParam<AblationSpec> {};

TEST_P(AblationTest, ForwardRuns) {
  PristiConfig config = TinyConfig(5, 6);
  config.layers = 1;
  GetParam().apply(config);
  Rng rng(10);
  PristiModel model(config, TestAdjacency(5), rng);
  Rng data_rng(11);
  DiffusionBatch batch = RandomBatch(1, 5, 6, data_rng);
  Tensor noisy = Tensor::Randn({1, 5, 6}, data_rng);
  auto out = model.PredictNoise(noisy, batch, 2);
  EXPECT_EQ(out.value().shape(), (Shape{1, 5, 6}));
  ag::SumAll(ag::Square(out)).Backward();  // backward must also succeed
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AblationTest,
    ::testing::Values(
        AblationSpec{"mix_sti",
                     [](PristiConfig& c) {
                       c.use_interpolation = false;
                       c.use_conditional_feature = false;
                     }},
        AblationSpec{"wo_cf",
                     [](PristiConfig& c) { c.use_conditional_feature = false; }},
        AblationSpec{"wo_spa",
                     [](PristiConfig& c) {
                       c.use_mpnn = false;
                       c.use_spatial_attention = false;
                     }},
        AblationSpec{"wo_tem", [](PristiConfig& c) { c.use_temporal = false; }},
        AblationSpec{"wo_mpnn", [](PristiConfig& c) { c.use_mpnn = false; }},
        AblationSpec{"wo_attn",
                     [](PristiConfig& c) { c.use_spatial_attention = false; }}),
    [](const ::testing::TestParamInfo<AblationSpec>& info) {
      return info.param.name;
    });

TEST(PristiModelTest, CheckpointRoundTrip) {
  PristiConfig config = TinyConfig(4, 6);
  Rng rng_a(12), rng_b(13);
  PristiModel a(config, TestAdjacency(4), rng_a);
  PristiModel b(config, TestAdjacency(4), rng_b);
  Rng data_rng(14);
  DiffusionBatch batch = RandomBatch(1, 4, 6, data_rng);
  Tensor noisy = Tensor::Randn({1, 4, 6}, data_rng);
  Tensor out_a = a.PredictNoise(noisy, batch, 3).value();
  std::stringstream buffer;
  ASSERT_TRUE(a.SaveCheckpoint(buffer).ok());
  ASSERT_TRUE(b.LoadCheckpoint(buffer).ok());
  Tensor out_b = b.PredictNoise(noisy, batch, 3).value();
  EXPECT_TRUE(t::AllClose(out_a, out_b, 1e-6f));
}

// ---------------------------------------------------------------------------
// End-to-end: training reduces the noise-prediction loss, and the trained
// model imputes planted data better than an untrained one.
// ---------------------------------------------------------------------------

data::ImputationTask TinyTask(uint64_t seed) {
  data::SyntheticConfig dconfig;
  dconfig.num_nodes = 6;
  dconfig.num_steps = 260;
  dconfig.steps_per_day = 24;
  dconfig.original_missing_rate = 0.05;
  Rng rng(seed);
  auto dataset = data::GenerateSynthetic(dconfig, rng);
  return data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                        data::TaskOptions{.window_len = 8, .stride = 4}, rng);
}

TEST(PristiEndToEnd, TrainingLossDecreases) {
  data::ImputationTask task = TinyTask(21);
  PristiConfig config = TinyConfig(6, 8);
  config.layers = 1;
  config.channels = 8;
  Rng rng(22);
  PristiModel model(config, task.dataset.graph.adjacency, rng);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  diffusion::TrainOptions options;
  options.epochs = 24;
  options.batch_size = 8;
  options.lr = 2e-3f;
  options.mask_strategy = data::MaskStrategy::kPoint;
  std::vector<double> losses =
      diffusion::TrainDiffusionModel(&model, schedule, task, options, rng);
  ASSERT_EQ(losses.size(), 24u);
  double first = (losses[0] + losses[1]) / 2;
  double last = (losses[losses.size() - 2] + losses.back()) / 2;
  EXPECT_LT(last, first);
}

TEST(PristiEndToEnd, TrainedModelBeatsUntrainedOnImputation) {
  data::ImputationTask task = TinyTask(31);
  PristiConfig config = TinyConfig(6, 8);
  config.layers = 1;
  Rng rng(32);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);

  PristiModel trained(config, task.dataset.graph.adjacency, rng);
  diffusion::TrainOptions options;
  options.epochs = 30;
  options.batch_size = 8;
  options.lr = 2e-3f;
  options.mask_strategy = data::MaskStrategy::kPoint;
  diffusion::TrainDiffusionModel(&trained, schedule, task, options, rng);

  Rng rng_untrained(33);
  PristiModel untrained(config, task.dataset.graph.adjacency, rng_untrained);

  auto mae_on_eval = [&](diffusion::ConditionalNoisePredictor* model) {
    Rng sample_rng(99);
    double err_sum = 0;
    int64_t count = 0;
    for (const data::Sample& sample : data::ExtractSamples(task, "test")) {
      auto result = diffusion::ImputeWindow(model, schedule, sample,
                                            {.num_samples = 4}, sample_rng);
      for (int64_t node = 0; node < 6; ++node) {
        for (int64_t step = 0; step < 8; ++step) {
          if (sample.eval.at({node, step}) > 0.5f) {
            err_sum += std::fabs(result.median.at({node, step}) -
                                 sample.values.at({node, step}));
            ++count;
          }
        }
      }
    }
    return err_sum / std::max<int64_t>(count, 1);
  };

  double trained_mae = mae_on_eval(&trained);
  double untrained_mae = mae_on_eval(&untrained);
  EXPECT_LT(trained_mae, untrained_mae);
}

}  // namespace
}  // namespace pristi::core

namespace pristi::core {
namespace {

using ::pristi::diffusion::StepInvariantCache;

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

DiffusionBatch WithFreshCache(const DiffusionBatch& batch) {
  DiffusionBatch cached = batch;
  cached.step_cache = std::make_shared<StepInvariantCache>();
  return cached;
}

// ---------------------------------------------------------------------------
// Step-invariant cache contract: the conditioning a sampling run computes
// once and reuses must reproduce the uncached forward bit for bit, must
// never capture a tape, and belongs to exactly one model.
// ---------------------------------------------------------------------------

struct CacheConfigSpec {
  const char* name;
  void (*apply)(PristiConfig&);
  // U alone for w/o CF; otherwise U, H^pri and, when the spatial attention
  // reads it, H^pri's spatial layout.
  size_t cached_tensors;
};

class StepCacheTest : public ::testing::TestWithParam<CacheConfigSpec> {};

TEST_P(StepCacheTest, CacheHitIsBitwiseEqualToUncachedCall) {
  PristiConfig config = TinyConfig(6, 8);
  GetParam().apply(config);
  Rng rng(81);
  PristiModel model(config, TestAdjacency(6), rng);
  Rng data_rng(82);
  DiffusionBatch batch = RandomBatch(3, 6, 8, data_rng);
  DiffusionBatch cached = WithFreshCache(batch);

  // The steps a PLMS-5 run feeds the model, Runge-Kutta midpoints included.
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  std::vector<int64_t> steps;
  for (const diffusion::ReverseStep& rs :
       diffusion::PlanReverseSteps(schedule, 5)) {
    steps.push_back(rs.step);
    if (rs.mid_step > 0) steps.push_back(rs.mid_step);
  }
  ASSERT_GE(steps.size(), 8u);

  ag::NoGradGuard no_grad;
  for (int64_t step : steps) {
    Tensor noisy = t::Mul(Tensor::Randn({3, 6, 8}, data_rng),
                          batch.target_mask);
    Tensor uncached = model.PredictNoise(noisy, batch, step).value();
    Tensor reused = model.PredictNoise(noisy, cached, step).value();
    EXPECT_TRUE(BitwiseEqual(uncached, reused)) << "t=" << step;
    EXPECT_EQ(cached.step_cache->owner, &model);
    EXPECT_EQ(cached.step_cache->tensors.size(), GetParam().cached_tensors);
  }
  EXPECT_EQ(batch.step_cache, nullptr);
}

// The sampler's layout: R = 2 windows, each repeated for its S = 3 chains,
// with chains_per_window saying so. The model then conditions once per
// window and every attention forms its weights once per window; each output
// row must still equal the uncached call's, on the filling call and on the
// calls that reuse the cache.
TEST_P(StepCacheTest, GroupedCallIsBitwiseEqualToUncachedCall) {
  const int64_t windows = 2, chains = 3, n = 6, l = 8;
  PristiConfig config = TinyConfig(n, l);
  GetParam().apply(config);
  Rng rng(88);
  PristiModel model(config, TestAdjacency(n), rng);
  Rng data_rng(89);
  DiffusionBatch per_window = RandomBatch(windows, n, l, data_rng);
  DiffusionBatch batch;
  for (auto [one, stacked] :
       {std::pair{&per_window.cond_values, &batch.cond_values},
        std::pair{&per_window.cond_mask, &batch.cond_mask},
        std::pair{&per_window.interpolated, &batch.interpolated},
        std::pair{&per_window.target_mask, &batch.target_mask}}) {
    *stacked = Tensor({windows * chains, n, l});
    for (int64_t row = 0; row < windows * chains; ++row) {
      std::copy(one->data() + (row / chains) * n * l,
                one->data() + (row / chains + 1) * n * l,
                stacked->data() + row * n * l);
    }
  }
  DiffusionBatch grouped = WithFreshCache(batch);
  grouped.chains_per_window = chains;

  ag::NoGradGuard no_grad;
  for (int64_t step : {40, 17, 3}) {
    Tensor noisy = t::Mul(Tensor::Randn({windows * chains, n, l}, data_rng),
                          batch.target_mask);
    Tensor uncached = model.PredictNoise(noisy, batch, step).value();
    Tensor shared = model.PredictNoise(noisy, grouped, step).value();
    EXPECT_TRUE(BitwiseEqual(uncached, shared)) << "t=" << step;
    ASSERT_EQ(grouped.step_cache->tensors.size(), GetParam().cached_tensors);
    if (config.use_conditional_feature) {
      EXPECT_EQ(grouped.step_cache->tensors[1].dim(0), windows);
    }
    if (config.use_conditional_feature && config.use_spatial_attention) {
      EXPECT_EQ(grouped.step_cache->tensors[2].dim(0), windows * l);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, StepCacheTest,
    ::testing::Values(
        CacheConfigSpec{"pristi", [](PristiConfig&) {}, 3},
        CacheConfigSpec{"mix_sti",
                        [](PristiConfig& c) {
                          c.use_interpolation = false;
                          c.use_conditional_feature = false;
                        },
                        1},
        CacheConfigSpec{"mix_sti_with_cf",
                        [](PristiConfig& c) { c.use_interpolation = false; },
                        3},
        CacheConfigSpec{"wo_tem",
                        [](PristiConfig& c) { c.use_temporal = false; }, 3},
        CacheConfigSpec{"wo_spa",
                        [](PristiConfig& c) {
                          c.use_spatial_attention = false;
                          c.use_mpnn = false;
                        },
                        2},
        CacheConfigSpec{"wo_mpnn",
                        [](PristiConfig& c) { c.use_mpnn = false; }, 3},
        CacheConfigSpec{"wo_attn",
                        [](PristiConfig& c) {
                          c.use_spatial_attention = false;
                        },
                        2},
        CacheConfigSpec{"wo_cf",
                        [](PristiConfig& c) {
                          c.use_conditional_feature = false;
                        },
                        1}),
    [](const ::testing::TestParamInfo<CacheConfigSpec>& info) {
      return info.param.name;
    });

#if PRISTI_DCHECK_IS_ON
// Nothing in the output's shape shows a broken chains_per_window promise:
// with debug checks on, a batch whose chains do not hold their window's
// conditioning stops the call that fills the cache instead of conditioning
// every chain on the first row of its window.
TEST(StepCacheContractDeathTest, ChainsThatDoNotShareTheirWindowAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PristiConfig config = TinyConfig(5, 6);
  Rng rng(90);
  PristiModel model(config, TestAdjacency(5), rng);
  Rng data_rng(91);
  DiffusionBatch batch = WithFreshCache(RandomBatch(4, 5, 6, data_rng));
  batch.chains_per_window = 2;
  Tensor noisy = Tensor::Randn({4, 5, 6}, data_rng);
  ag::NoGradGuard no_grad;
  EXPECT_DEATH(model.PredictNoise(noisy, batch, 7),
               "conditioning rows of a window differ");
}
#endif  // PRISTI_DCHECK_IS_ON

TEST(StepCacheContract, GradModeNeitherFillsNorReadsTheCache) {
  PristiConfig config = TinyConfig(5, 6);
  Rng rng(83);
  PristiModel model(config, TestAdjacency(5), rng);
  Rng data_rng(84);
  DiffusionBatch batch = RandomBatch(2, 5, 6, data_rng);
  Tensor noisy = Tensor::Randn({2, 5, 6}, data_rng);

  // A grad-mode call with an empty cache leaves it unclaimed and empty.
  DiffusionBatch cached = WithFreshCache(batch);
  Tensor taped = model.PredictNoise(noisy, cached, 7).value();
  EXPECT_EQ(cached.step_cache->owner, nullptr);
  EXPECT_TRUE(cached.step_cache->tensors.empty());

  // Once filled under inference mode, a grad-mode call still recomputes
  // the conditioning on the tape: the gradient reaches every parameter of
  // the conditional feature module.
  {
    ag::NoGradGuard no_grad;
    model.PredictNoise(noisy, cached, 7);
  }
  ASSERT_EQ(cached.step_cache->tensors.size(), 3u);
  model.ZeroGrad();
  Variable out = model.PredictNoise(noisy, cached, 7);
  EXPECT_TRUE(BitwiseEqual(out.value(), taped));
  ag::SumAll(ag::Square(out)).Backward();
  int64_t cond_params = 0;
  for (auto& [name, param] : model.NamedParameters()) {
    if (name.rfind("cond_module.", 0) != 0 && name != "node_embedding" &&
        name.rfind("cond_conv.", 0) != 0 && name.rfind("aux_proj.", 0) != 0) {
      continue;
    }
    ++cond_params;
    EXPECT_TRUE(param.has_grad()) << name;
  }
  EXPECT_GT(cond_params, 10);
}

TEST(StepCacheContract, OneModelsCacheIsNotUsedByAnother) {
  PristiConfig config = TinyConfig(5, 6);
  Rng rng_a(85), rng_b(86);
  PristiModel a(config, TestAdjacency(5), rng_a);
  PristiModel b(config, TestAdjacency(5), rng_b);
  Rng data_rng(87);
  DiffusionBatch batch = RandomBatch(2, 5, 6, data_rng);
  Tensor noisy = Tensor::Randn({2, 5, 6}, data_rng);

  ag::NoGradGuard no_grad;
  DiffusionBatch cached = WithFreshCache(batch);
  a.PredictNoise(noisy, cached, 4);
  ASSERT_EQ(cached.step_cache->owner, &a);
  std::vector<Tensor> filled_by_a = cached.step_cache->tensors;

  Tensor uncached_b = b.PredictNoise(noisy, batch, 4).value();
  Tensor shared_b = b.PredictNoise(noisy, cached, 4).value();
  EXPECT_TRUE(BitwiseEqual(uncached_b, shared_b));
  EXPECT_EQ(cached.step_cache->owner, &a);
  ASSERT_EQ(cached.step_cache->tensors.size(), filled_by_a.size());
  for (size_t i = 0; i < filled_by_a.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(cached.step_cache->tensors[i], filled_by_a[i]));
  }
}

// ---------------------------------------------------------------------------
// No target leakage (Algorithm 2): the sampler may only read observed
// entries, so whatever sits in sample.values at unobserved positions must
// not change a single output bit — the hoisted conditioning included.
// ---------------------------------------------------------------------------

// PriSTI conditions on the interpolation, mix-STI on the raw observed
// values; both must mask what they read.
class NoTargetLeakage : public ::testing::TestWithParam<bool> {};

TEST_P(NoTargetLeakage, UnobservedValuesDoNotChangeImputation) {
  PristiConfig config = TinyConfig(6, 8);
  config.use_interpolation = GetParam();
  Rng rng(88);
  PristiModel model(config, TestAdjacency(6), rng);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);

  Rng data_rng(89);
  data::Sample sample;
  sample.values = Tensor::Randn({6, 8}, data_rng);
  sample.observed = Tensor::Zeros({6, 8});
  for (int64_t i = 0; i < sample.observed.numel(); ++i) {
    sample.observed[i] = data_rng.Bernoulli(0.6) ? 1.0f : 0.0f;
  }
  sample.eval = Tensor::Zeros({6, 8});
  data::Sample perturbed = sample;
  perturbed.values = sample.values.Clone();
  int64_t hidden = 0;
  for (int64_t i = 0; i < perturbed.values.numel(); ++i) {
    if (sample.observed[i] < 0.5f) {
      perturbed.values[i] += 100.0f + static_cast<float>(data_rng.Normal());
      ++hidden;
    }
  }
  ASSERT_GT(hidden, 0);

  for (diffusion::SamplerKind sampler :
       {diffusion::SamplerKind::kDdpm, diffusion::SamplerKind::kDdim,
        diffusion::SamplerKind::kPlms}) {
    diffusion::ImputeOptions options;
    options.num_samples = 3;
    options.sampler = sampler;
    options.num_inference_steps = 6;
    Rng rng_a(90), rng_b(90);
    diffusion::ImputationResult clean =
        diffusion::ImputeWindow(&model, schedule, sample, options, rng_a);
    diffusion::ImputationResult dirty =
        diffusion::ImputeWindow(&model, schedule, perturbed, options, rng_b);
    const char* name = diffusion::SamplerKindName(sampler);
    ASSERT_EQ(clean.samples.size(), dirty.samples.size()) << name;
    for (size_t c = 0; c < clean.samples.size(); ++c) {
      EXPECT_TRUE(BitwiseEqual(clean.samples[c], dirty.samples[c]))
          << name << " chain " << c;
    }
    EXPECT_TRUE(BitwiseEqual(clean.median, dirty.median)) << name;
  }
}

// The tensor ops PredictNoise runs on the pool (GEMM row blocks with
// per-worker A packing, broadcasts, permutes, concats) split only above
// kElementwiseMinChunk elements, so thread invariance is checked at a shape
// where they do: (B, N, L, d) = (8, 64, 24, 16), 196,608 floats per
// activation, with the step cache both filling and hitting.
TEST(PredictNoiseThreads, BitwiseEqualAtOneAndFourThreads) {
  const int64_t b = 8, n = 64, l = 24;
  PristiConfig config = TinyConfig(n, l);
  config.channels = 16;
  config.heads = 4;
  Rng rng(101);
  PristiModel model(config, TestAdjacency(n, 102), rng);
  Rng data_rng(103);
  DiffusionBatch batch = RandomBatch(b, n, l, data_rng);
  Tensor noisy = Tensor::Randn({b, n, l}, data_rng);

  ag::NoGradGuard no_grad;
  const int64_t saved = ParallelThreadCount();
  std::vector<Tensor> outs;
  for (int64_t threads : {1, 4}) {
    SetParallelThreadCount(threads);
    DiffusionBatch run = WithFreshCache(batch);
    outs.push_back(model.PredictNoise(noisy, run, 7).value());  // fills
    outs.push_back(model.PredictNoise(noisy, run, 3).value());  // hits
  }
  SetParallelThreadCount(saved);
  EXPECT_TRUE(BitwiseEqual(outs[0], outs[2])) << "cache-filling call";
  EXPECT_TRUE(BitwiseEqual(outs[1], outs[3])) << "cache-hit call";
}

INSTANTIATE_TEST_SUITE_P(Conditioning, NoTargetLeakage, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "interpolated" : "raw_observed";
                         });

}  // namespace
}  // namespace pristi::core
