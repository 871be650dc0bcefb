// Tests for synthetic dataset generation, missing-pattern injection, mask
// strategies, windowing, normalization and linear interpolation.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/missing.h"
#include "data/windows.h"

namespace pristi::data {
namespace {

namespace t = ::pristi::tensor;
using t::Shape;
using t::Tensor;

SpatioTemporalDataset SmallDataset(uint64_t seed = 1) {
  SyntheticConfig config;
  config.num_nodes = 10;
  config.num_steps = 240;
  config.steps_per_day = 24;
  config.original_missing_rate = 0.08;
  Rng rng(seed);
  return GenerateSynthetic(config, rng);
}

TEST(SyntheticGenerator, ShapesAndFiniteness) {
  SpatioTemporalDataset dataset = SmallDataset();
  EXPECT_EQ(dataset.values.shape(), (Shape{240, 10}));
  EXPECT_EQ(dataset.observed_mask.shape(), (Shape{240, 10}));
  EXPECT_EQ(dataset.graph.num_nodes, 10);
  for (int64_t i = 0; i < dataset.values.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(dataset.values[i]));
  }
}

TEST(SyntheticGenerator, OriginalMissingRateApproximatelyMet) {
  SpatioTemporalDataset dataset = SmallDataset(3);
  double missing = 1.0 - MaskRate(dataset.observed_mask);
  EXPECT_NEAR(missing, 0.08, 0.03);
}

TEST(SyntheticGenerator, DeterministicForSeed) {
  SpatioTemporalDataset a = SmallDataset(7);
  SpatioTemporalDataset b = SmallDataset(7);
  EXPECT_TRUE(t::AllClose(a.values, b.values, 0.0f, 0.0f));
  EXPECT_TRUE(t::AllClose(a.observed_mask, b.observed_mask, 0.0f, 0.0f));
}

TEST(SyntheticGenerator, PlantsTemporalAutocorrelation) {
  // Lag-1 autocorrelation of node series should be clearly positive.
  SpatioTemporalDataset dataset = SmallDataset(11);
  const Tensor& v = dataset.values;
  double num = 0, den = 0, mean = 0;
  int64_t t_steps = v.dim(0);
  for (int64_t t = 0; t < t_steps; ++t) mean += v.at({t, 0});
  mean /= t_steps;
  for (int64_t t = 0; t + 1 < t_steps; ++t) {
    num += (v.at({t, 0}) - mean) * (v.at({t + 1, 0}) - mean);
  }
  for (int64_t t = 0; t < t_steps; ++t) {
    double d = v.at({t, 0}) - mean;
    den += d * d;
  }
  EXPECT_GT(num / den, 0.5);
}

TEST(SyntheticGenerator, PlantsSpatialCorrelation) {
  // Average |corr| between nearest-neighbour pairs should exceed the average
  // between the farthest pairs.
  SyntheticConfig config;
  config.num_nodes = 12;
  config.num_steps = 1200;
  config.original_missing_rate = 0.0;
  config.spatial_mix = 0.6;
  Rng rng(13);
  SpatioTemporalDataset dataset = GenerateSynthetic(config, rng);
  int64_t t_steps = dataset.num_steps, n = dataset.num_nodes;

  auto corr = [&](int64_t a, int64_t b) {
    double ma = 0, mb = 0;
    for (int64_t t = 0; t < t_steps; ++t) {
      ma += dataset.values.at({t, a});
      mb += dataset.values.at({t, b});
    }
    ma /= t_steps;
    mb /= t_steps;
    double num = 0, va = 0, vb = 0;
    for (int64_t t = 0; t < t_steps; ++t) {
      double da = dataset.values.at({t, a}) - ma;
      double db = dataset.values.at({t, b}) - mb;
      num += da * db;
      va += da * da;
      vb += db * db;
    }
    return num / std::sqrt(va * vb + 1e-12);
  };

  double near_sum = 0, far_sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t nearest = -1, farthest = -1;
    float dmin = 1e9f, dmax = -1;
    for (int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      float d = dataset.graph.distances.at({i, j});
      if (d < dmin) {
        dmin = d;
        nearest = j;
      }
      if (d > dmax) {
        dmax = d;
        farthest = j;
      }
    }
    near_sum += corr(i, nearest);
    far_sum += corr(i, farthest);
  }
  EXPECT_GT(near_sum / n, far_sum / n);
}

TEST(SyntheticGenerator, NonNegativeClampHolds) {
  Rng rng(17);
  SyntheticConfig config = Aqi36LikeConfig(12, 300);
  SpatioTemporalDataset dataset = GenerateSynthetic(config, rng);
  EXPECT_GE(t::MinAll(dataset.values), 0.0f);
}

TEST(Presets, MatchPaperMissingRates) {
  EXPECT_NEAR(Aqi36LikeConfig().original_missing_rate, 0.1324, 1e-9);
  EXPECT_NEAR(MetrLaLikeConfig().original_missing_rate, 0.081, 1e-9);
  EXPECT_NEAR(PemsBayLikeConfig().original_missing_rate, 0.0002, 1e-9);
  EXPECT_EQ(Aqi36LikeConfig().steps_per_day, 24);
  EXPECT_EQ(MetrLaLikeConfig().steps_per_day, 288);
}

// ---------------------------------------------------------------------------
// Injectors
// ---------------------------------------------------------------------------

TEST(Injectors, PointMissingSubsetAndRate) {
  SpatioTemporalDataset dataset = SmallDataset(19);
  Rng rng(20);
  Tensor eval = InjectPointMissing(dataset.observed_mask, 0.25, rng);
  // Subset of observed.
  EXPECT_NEAR(MaskOverlap(eval, dataset.observed_mask), 1.0, 1e-12);
  // ~25% of observed entries withheld.
  double withheld = MaskRate(eval) / MaskRate(dataset.observed_mask);
  EXPECT_NEAR(withheld, 0.25, 0.05);
}

TEST(Injectors, BlockMissingCreatesRuns) {
  SpatioTemporalDataset dataset = SmallDataset(21);
  Rng rng(22);
  BlockMissingOptions options;
  options.block_prob = 0.01;  // denser for a small test series
  options.min_len = 6;
  options.max_len = 12;
  Tensor eval = InjectBlockMissing(dataset.observed_mask, options, rng);
  EXPECT_NEAR(MaskOverlap(eval, dataset.observed_mask), 1.0, 1e-12);
  // There must exist a run of >= 4 consecutive withheld steps on some node.
  int64_t longest = 0;
  for (int64_t node = 0; node < dataset.num_nodes; ++node) {
    int64_t run = 0;
    for (int64_t t = 0; t < dataset.num_steps; ++t) {
      run = eval.at({t, node}) > 0.5f ? run + 1 : 0;
      longest = std::max(longest, run);
    }
  }
  EXPECT_GE(longest, 4);
}

TEST(Injectors, SimulatedFailureHitsTargetRate) {
  SpatioTemporalDataset dataset = SmallDataset(23);
  Rng rng(24);
  Tensor eval = InjectSimulatedFailure(dataset.observed_mask, 0.246, rng);
  double withheld = MaskRate(eval) / MaskRate(dataset.observed_mask);
  EXPECT_NEAR(withheld, 0.246, 0.05);
}

TEST(Injectors, SensorFailureMasksWholeNodes) {
  SpatioTemporalDataset dataset = SmallDataset(25);
  Tensor eval = InjectSensorFailure(dataset.observed_mask, {2, 5});
  for (int64_t t = 0; t < dataset.num_steps; ++t) {
    EXPECT_EQ(eval.at({t, 2}), dataset.observed_mask.at({t, 2}));
    EXPECT_EQ(eval.at({t, 5}), dataset.observed_mask.at({t, 5}));
    EXPECT_EQ(eval.at({t, 0}), 0.0f);
  }
}

TEST(Injectors, ParseMissingPatternRoundTripsNames) {
  for (MissingPattern pattern :
       {MissingPattern::kPoint, MissingPattern::kBlock,
        MissingPattern::kSimulatedFailure}) {
    MissingPattern parsed = MissingPattern::kPoint;
    ASSERT_TRUE(ParseMissingPattern(MissingPatternName(pattern), &parsed));
    EXPECT_EQ(parsed, pattern);
  }
  MissingPattern parsed = MissingPattern::kBlock;
  ASSERT_TRUE(ParseMissingPattern("failure", &parsed));
  EXPECT_EQ(parsed, MissingPattern::kSimulatedFailure);
  EXPECT_FALSE(ParseMissingPattern("bogus", &parsed));
  EXPECT_EQ(parsed, MissingPattern::kSimulatedFailure);  // left untouched
  // Each pattern's training mask strategy (pristi_cli and pristi_paper).
  EXPECT_EQ(TrainingMaskStrategy(MissingPattern::kPoint), MaskStrategy::kPoint);
  EXPECT_EQ(TrainingMaskStrategy(MissingPattern::kBlock),
            MaskStrategy::kHybrid);
  EXPECT_EQ(TrainingMaskStrategy(MissingPattern::kSimulatedFailure),
            MaskStrategy::kHybridHistorical);
}

// ---------------------------------------------------------------------------
// Mask strategies (training)
// ---------------------------------------------------------------------------

class MaskStrategyTest : public ::testing::TestWithParam<MaskStrategy> {};

TEST_P(MaskStrategyTest, TargetIsSubsetOfObserved) {
  Rng rng(31);
  Tensor observed = Tensor::Ones({8, 24});
  // Punch some pre-existing holes.
  for (int64_t i = 0; i < observed.numel(); i += 7) observed[i] = 0.0f;
  for (int trial = 0; trial < 20; ++trial) {
    Tensor target = ApplyMaskStrategy(observed, GetParam(), rng);
    EXPECT_EQ(target.shape(), observed.shape());
    for (int64_t i = 0; i < target.numel(); ++i) {
      if (target[i] > 0.5f) {
        EXPECT_GT(observed[i], 0.5f) << "entry " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MaskStrategyTest,
    ::testing::Values(MaskStrategy::kPoint, MaskStrategy::kBlock,
                      MaskStrategy::kHybrid,
                      MaskStrategy::kHybridHistorical));

TEST(MaskStrategies, PointStrategyCoversRateRange) {
  // Across many draws the masked fraction should span a wide range, because
  // m ~ U[0, 100]%.
  Rng rng(32);
  Tensor observed = Tensor::Ones({6, 24});
  double lo = 1.0, hi = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    Tensor target = ApplyMaskStrategy(observed, MaskStrategy::kPoint, rng);
    double rate = MaskRate(target);
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  EXPECT_LT(lo, 0.2);
  EXPECT_GT(hi, 0.8);
}

TEST(MaskStrategies, HistoricalPatternUsedWhenProvided) {
  Rng rng(33);
  Tensor observed = Tensor::Ones({4, 8});
  Tensor historical = Tensor::Ones({4, 8});
  historical.at({1, 3}) = 0.0f;
  historical.at({2, 5}) = 0.0f;
  // Run until the non-point branch is taken at least once: targets must then
  // be exactly the historical missing positions.
  bool saw_historical = false;
  for (int trial = 0; trial < 50 && !saw_historical; ++trial) {
    Tensor target = ApplyMaskStrategy(
        observed, MaskStrategy::kHybridHistorical, rng, &historical);
    if (target.at({1, 3}) > 0.5f && target.at({2, 5}) > 0.5f &&
        t::SumAll(target) == 2.0f) {
      saw_historical = true;
    }
  }
  EXPECT_TRUE(saw_historical);
}

// ---------------------------------------------------------------------------
// Windows / normalization / interpolation
// ---------------------------------------------------------------------------

TEST(NormalizerTest, StandardizesTrainObservedEntries) {
  SpatioTemporalDataset dataset = SmallDataset(41);
  Normalizer norm = Normalizer::Fit(dataset.values, dataset.observed_mask, 0,
                                    200);
  Tensor scaled = norm.Apply(dataset.values, /*node_major=*/false);
  // Observed training entries of each node: ~zero mean, ~unit std.
  for (int64_t node = 0; node < dataset.num_nodes; ++node) {
    double sum = 0;
    int64_t count = 0;
    for (int64_t t = 0; t < 200; ++t) {
      if (dataset.observed_mask.at({t, node}) > 0.5f) {
        sum += scaled.at({t, node});
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-3);
  }
  // Round trip.
  Tensor restored = norm.Invert(scaled, /*node_major=*/false);
  EXPECT_TRUE(t::AllClose(restored, dataset.values, 1e-2f, 1e-3f));
}

TEST(LinearInterpolateFn, ExactOnLinearSeries) {
  // A perfectly linear series is recovered exactly through interior holes.
  Tensor values({1, 6}, {0, 2, 4, 6, 8, 10});
  Tensor mask({1, 6}, {1, 0, 0, 1, 0, 1});
  Tensor filled = LinearInterpolate(values, mask);
  EXPECT_TRUE(t::AllClose(filled, values, 1e-5f));
}

TEST(LinearInterpolateFn, FlatExtrapolationAtEdges) {
  Tensor values({1, 5}, {9, 9, 5, 9, 9});
  Tensor mask({1, 5}, {0, 0, 1, 0, 0});
  Tensor filled = LinearInterpolate(values, mask);
  for (int64_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(filled[i], 5.0f);
}

TEST(LinearInterpolateFn, AllMissingNodeGetsZeros) {
  Tensor values({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor mask = Tensor::Zeros({2, 4});
  mask.at({0, 0}) = 1.0f;
  Tensor filled = LinearInterpolate(values, mask);
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_FLOAT_EQ(filled.at({0, t}), 1.0f);  // flat from single obs
    EXPECT_FLOAT_EQ(filled.at({1, t}), 0.0f);  // no obs at all
  }
}

TEST(LinearInterpolateFn, PreservesObservedEntries) {
  Rng rng(43);
  Tensor values = Tensor::Randn({5, 12}, rng);
  Tensor mask = Tensor::Zeros({5, 12});
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  Tensor filled = LinearInterpolate(values, mask);
  for (int64_t i = 0; i < mask.numel(); ++i) {
    if (mask[i] > 0.5f) {
      EXPECT_FLOAT_EQ(filled[i], values[i]);
    }
  }
}

TEST(TaskPipeline, MasksArePartition) {
  SpatioTemporalDataset dataset = SmallDataset(47);
  Rng rng(48);
  ImputationTask task = MakeTask(dataset, MissingPattern::kPoint,
                                 TaskOptions{.window_len = 24}, rng);
  // model_observed and eval are disjoint and their union is observed.
  for (int64_t i = 0; i < task.eval_mask.numel(); ++i) {
    float observed = task.dataset.observed_mask[i];
    float eval = task.eval_mask[i];
    float model = task.model_observed_mask[i];
    EXPECT_LE(eval + model, observed + 1e-6f);
    EXPECT_FLOAT_EQ(eval + model, observed);
  }
}

TEST(TaskPipeline, WindowExtractionMatchesSource) {
  SpatioTemporalDataset dataset = SmallDataset(49);
  Rng rng(50);
  ImputationTask task = MakeTask(dataset, MissingPattern::kPoint,
                                 TaskOptions{.window_len = 24}, rng);
  Sample sample = ExtractWindow(task, 48);
  EXPECT_EQ(sample.values.shape(), (Shape{10, 24}));
  // Denormalized window values must equal the source series.
  Tensor restored = task.normalizer.Invert(sample.values, true);
  for (int64_t node = 0; node < 10; ++node) {
    for (int64_t t = 0; t < 24; ++t) {
      EXPECT_NEAR(restored.at({node, t}),
                  task.dataset.values.at({48 + t, node}), 1e-2f);
    }
  }
}

TEST(TaskPipeline, SplitsDoNotOverlapAndCoverSeries) {
  SpatioTemporalDataset dataset = SmallDataset(51);
  Rng rng(52);
  ImputationTask task = MakeTask(dataset, MissingPattern::kBlock,
                                 TaskOptions{.window_len = 24}, rng);
  auto train = ExtractSamples(task, "train");
  auto val = ExtractSamples(task, "val");
  auto test = ExtractSamples(task, "test");
  EXPECT_FALSE(train.empty());
  EXPECT_FALSE(test.empty());
  std::set<int64_t> train_starts, others;
  for (const auto& s : train) train_starts.insert(s.start);
  for (const auto& s : val) others.insert(s.start);
  for (const auto& s : test) others.insert(s.start);
  for (int64_t start : others) {
    EXPECT_EQ(train_starts.count(start), 0u);
    EXPECT_GE(start, task.train_end);
  }
}

TEST(TaskPipeline, OverlappingTrainStride) {
  SpatioTemporalDataset dataset = SmallDataset(53);
  Rng rng(54);
  ImputationTask task = MakeTask(
      dataset, MissingPattern::kPoint,
      TaskOptions{.window_len = 24, .stride = 6}, rng);
  auto train = ExtractSamples(task, "train");
  auto dense_count = train.size();
  ImputationTask task2 = MakeTask(
      SmallDataset(53), MissingPattern::kPoint,
      TaskOptions{.window_len = 24, .stride = 24}, rng);
  EXPECT_GT(dense_count, ExtractSamples(task2, "train").size());
}

}  // namespace
}  // namespace pristi::data

// ---------------------------------------------------------------------------
// Spatially clustered simulated failures (geo-correlated missing).
// ---------------------------------------------------------------------------

namespace pristi::data {
namespace {

TEST(ClusteredFailure, NeighboursFailTogether) {
  // With distances provided, outage steps should hit multiple nearby nodes
  // at once: measure co-missing of nearest-neighbour pairs vs random pairs.
  SyntheticConfig config;
  config.num_nodes = 16;
  config.num_steps = 600;
  config.original_missing_rate = 0.0;
  Rng rng(71);
  SpatioTemporalDataset dataset = GenerateSynthetic(config, rng);
  Rng inject_rng(72);
  tensor::Tensor eval = InjectSimulatedFailure(
      dataset.observed_mask, 0.25, inject_rng, &dataset.graph.distances);

  auto co_missing = [&](int64_t a, int64_t b) {
    int64_t both = 0, either = 0;
    for (int64_t t = 0; t < dataset.num_steps; ++t) {
      bool ma = eval.at({t, a}) > 0.5f;
      bool mb = eval.at({t, b}) > 0.5f;
      both += (ma && mb) ? 1 : 0;
      either += (ma || mb) ? 1 : 0;
    }
    return either > 0 ? static_cast<double>(both) / either : 0.0;
  };

  double near_sum = 0.0, far_sum = 0.0;
  for (int64_t i = 0; i < 16; ++i) {
    int64_t nearest = -1, farthest = -1;
    float dmin = 1e9f, dmax = -1.0f;
    for (int64_t j = 0; j < 16; ++j) {
      if (j == i) continue;
      float d = dataset.graph.distances.at({i, j});
      if (d < dmin) { dmin = d; nearest = j; }
      if (d > dmax) { dmax = d; farthest = j; }
    }
    near_sum += co_missing(i, nearest);
    far_sum += co_missing(i, farthest);
  }
  EXPECT_GT(near_sum, far_sum);
}

TEST(ClusteredFailure, StillSubsetOfObservedAndOnTarget) {
  SyntheticConfig config;
  config.num_nodes = 10;
  config.num_steps = 400;
  config.original_missing_rate = 0.1;
  Rng rng(73);
  SpatioTemporalDataset dataset = GenerateSynthetic(config, rng);
  Rng inject_rng(74);
  tensor::Tensor eval = InjectSimulatedFailure(
      dataset.observed_mask, 0.246, inject_rng, &dataset.graph.distances);
  EXPECT_NEAR(MaskOverlap(eval, dataset.observed_mask), 1.0, 1e-12);
  double withheld = MaskRate(eval) / MaskRate(dataset.observed_mask);
  EXPECT_NEAR(withheld, 0.246, 0.05);
}

TEST(SkewedGenerator, AqiLikeIsRightSkewed) {
  // The quadratic latent response should produce positive skew (PM2.5-like
  // episode peaks).
  Rng rng(75);
  auto dataset = GenerateSynthetic(Aqi36LikeConfig(12, 1200), rng);
  double mean = 0;
  int64_t n = dataset.values.numel();
  for (int64_t i = 0; i < n; ++i) mean += dataset.values[i];
  mean /= n;
  double m2 = 0, m3 = 0;
  for (int64_t i = 0; i < n; ++i) {
    double d = dataset.values[i] - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= n;
  m3 /= n;
  double skew = m3 / std::pow(m2, 1.5);
  EXPECT_GT(skew, 0.3);
}

}  // namespace
}  // namespace pristi::data
