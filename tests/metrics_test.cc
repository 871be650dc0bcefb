// Tests for MAE/MSE/RMSE accumulators and the discretized-quantile CRPS
// (paper Eq. 10-12), including its identities (point mass = absolute error,
// scale equivariance).

#include "metrics/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pristi::metrics {
namespace {

namespace t = ::pristi::tensor;
using t::Tensor;

TEST(ErrorAccumulatorTest, HandComputedValues) {
  Tensor pred({2, 2}, {1, 2, 3, 4});
  Tensor truth({2, 2}, {1, 4, 5, 4});
  Tensor mask = Tensor::Ones({2, 2});
  ErrorAccumulator acc;
  acc.Add(pred, truth, mask);
  EXPECT_EQ(acc.count(), 4);
  EXPECT_NEAR(acc.Mae(), (0 + 2 + 2 + 0) / 4.0, 1e-9);
  EXPECT_NEAR(acc.Mse(), (0 + 4 + 4 + 0) / 4.0, 1e-9);
  EXPECT_NEAR(acc.Rmse(), std::sqrt(2.0), 1e-9);
}

TEST(ErrorAccumulatorTest, MaskExcludesEntries) {
  Tensor pred({1, 3}, {0, 100, 0});
  Tensor truth({1, 3}, {0, 0, 0});
  Tensor mask({1, 3}, {1, 0, 1});
  ErrorAccumulator acc;
  acc.Add(pred, truth, mask);
  EXPECT_EQ(acc.count(), 2);
  EXPECT_NEAR(acc.Mae(), 0.0, 1e-9);
  EXPECT_NEAR(acc.Mse(), 0.0, 1e-9);
}

TEST(ErrorAccumulatorTest, AggregatesAcrossWindowsByCount) {
  ErrorAccumulator acc;
  // First window: 2 entries with error 1.
  acc.Add(Tensor({2}, {1, 1}), Tensor({2}, {0, 0}), Tensor::Ones({2}));
  // Second window: 6 entries with error 4.
  acc.Add(Tensor({6}, {4, 4, 4, 4, 4, 4}), Tensor::Zeros({6}),
          Tensor::Ones({6}));
  EXPECT_NEAR(acc.Mae(), (2 * 1 + 6 * 4) / 8.0, 1e-9);
}

TEST(ErrorAccumulatorTest, EmptyMaskGivesZero) {
  ErrorAccumulator acc;
  acc.Add(Tensor({2}, {5, 5}), Tensor::Zeros({2}), Tensor::Zeros({2}));
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.Mae(), 0.0);
}

// ---------------------------------------------------------------------------
// CRPS
// ---------------------------------------------------------------------------

TEST(CrpsTest, PointMassEqualsAbsoluteError) {
  // A degenerate distribution at v scores exactly |truth - v| under the
  // discretized quantile-loss CRPS.
  std::vector<float> samples(50, 3.0f);
  EXPECT_NEAR(CrpsFromSamples(samples, 5.0f), 2.0, 1e-5);
  EXPECT_NEAR(CrpsFromSamples(samples, 3.0f), 0.0, 1e-6);
  EXPECT_NEAR(CrpsFromSamples(samples, 1.5f), 1.5, 1e-5);
}

TEST(CrpsTest, ConcentratedBeatsDiffuse) {
  Rng rng(1);
  std::vector<float> tight, wide;
  for (int i = 0; i < 400; ++i) {
    tight.push_back(static_cast<float>(rng.Normal(0.0, 0.3)));
    wide.push_back(static_cast<float>(rng.Normal(0.0, 3.0)));
  }
  EXPECT_LT(CrpsFromSamples(tight, 0.0f), CrpsFromSamples(wide, 0.0f));
}

TEST(CrpsTest, CalibrationBeatsBias) {
  Rng rng(2);
  std::vector<float> centered, biased;
  for (int i = 0; i < 400; ++i) {
    float draw = static_cast<float>(rng.Normal(0.0, 1.0));
    centered.push_back(draw);
    biased.push_back(draw + 5.0f);
  }
  EXPECT_LT(CrpsFromSamples(centered, 0.0f), CrpsFromSamples(biased, 0.0f));
}

TEST(CrpsTest, ScaleEquivariance) {
  Rng rng(3);
  std::vector<float> samples;
  for (int i = 0; i < 300; ++i) {
    samples.push_back(static_cast<float>(rng.Normal(1.0, 1.0)));
  }
  double base = CrpsFromSamples(samples, 2.0f);
  std::vector<float> scaled;
  for (float s : samples) scaled.push_back(3.0f * s);
  EXPECT_NEAR(CrpsFromSamples(scaled, 6.0f), 3.0 * base, 1e-3);
}

TEST(CrpsAccumulatorTest, NormalizationByTargetMagnitude) {
  // Point-mass samples: CRPS = |error|; normalized = sum|err| / sum|truth|.
  Tensor truth({2}, {10.0f, 20.0f});
  Tensor mask = Tensor::Ones({2});
  std::vector<Tensor> samples(5, Tensor({2}, {11.0f, 18.0f}));
  CrpsAccumulator acc;
  acc.Add(samples, truth, mask);
  EXPECT_EQ(acc.count(), 2);
  EXPECT_NEAR(acc.Crps(), (1.0 + 2.0) / 2.0, 1e-5);
  EXPECT_NEAR(acc.NormalizedCrps(), (1.0 + 2.0) / 30.0, 1e-6);
}

TEST(CrpsAccumulatorTest, MaskRestrictsEntries) {
  Tensor truth({3}, {1.0f, 2.0f, 3.0f});
  Tensor mask({3}, {0.0f, 1.0f, 0.0f});
  std::vector<Tensor> samples(4, Tensor({3}, {9.0f, 2.0f, 9.0f}));
  CrpsAccumulator acc;
  acc.Add(samples, truth, mask);
  EXPECT_EQ(acc.count(), 1);
  EXPECT_NEAR(acc.Crps(), 0.0, 1e-6);
}

}  // namespace
}  // namespace pristi::metrics
