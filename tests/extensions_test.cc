// Tests for the scalability/robustness extensions: ParallelFor, the MNAR
// injector, and the Clamp / Where / Stack ops.

#include <atomic>
#include <cmath>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/parallel.h"
#include "data/dataset.h"
#include "data/missing.h"

namespace pristi {
namespace {

namespace t = ::pristi::tensor;
using t::Tensor;

// ---------------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(0, 100, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  bool called = false;
  ParallelFor(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, RespectsMinChunk) {
  // With min_chunk == range size, at most one invocation happens.
  std::atomic<int> calls{0};
  ParallelFor(
      0, 10, [&](int64_t, int64_t) { calls++; }, /*min_chunk=*/10);
  EXPECT_EQ(calls.load(), 1);
}

// ---------------------------------------------------------------------------
// MNAR injector
// ---------------------------------------------------------------------------

TEST(MnarInjector, BiasesTowardHighValues) {
  Rng rng(9);
  auto dataset = data::GenerateSynthetic(data::Aqi36LikeConfig(10, 600), rng);
  Tensor eval = data::InjectValueDependentMissing(
      dataset.values, dataset.observed_mask, 0.25, 1.5, rng);
  // Mean value of withheld entries must exceed the mean of retained ones.
  double withheld_sum = 0, retained_sum = 0;
  int64_t withheld_count = 0, retained_count = 0;
  for (int64_t i = 0; i < eval.numel(); ++i) {
    if (dataset.observed_mask[i] < 0.5f) continue;
    if (eval[i] > 0.5f) {
      withheld_sum += dataset.values[i];
      ++withheld_count;
    } else {
      retained_sum += dataset.values[i];
      ++retained_count;
    }
  }
  ASSERT_GT(withheld_count, 0);
  ASSERT_GT(retained_count, 0);
  EXPECT_GT(withheld_sum / withheld_count, retained_sum / retained_count);
}

TEST(MnarInjector, ZeroSeverityMatchesRate) {
  Rng rng(10);
  auto dataset = data::GenerateSynthetic(data::Aqi36LikeConfig(10, 600), rng);
  Tensor eval = data::InjectValueDependentMissing(
      dataset.values, dataset.observed_mask, 0.3, 0.0, rng);
  double withheld = data::MaskRate(eval) /
                    data::MaskRate(dataset.observed_mask);
  EXPECT_NEAR(withheld, 0.3, 0.04);
}

TEST(MnarInjector, SubsetOfObserved) {
  Rng rng(11);
  auto dataset = data::GenerateSynthetic(data::Aqi36LikeConfig(8, 400), rng);
  Tensor eval = data::InjectValueDependentMissing(
      dataset.values, dataset.observed_mask, 0.2, 1.0, rng);
  EXPECT_NEAR(data::MaskOverlap(eval, dataset.observed_mask), 1.0, 1e-12);
}

}  // namespace
}  // namespace pristi

// ---------------------------------------------------------------------------
// Clamp / Where / Stack ops
// ---------------------------------------------------------------------------

namespace pristi {
namespace {

namespace ag2 = ::pristi::autograd;
namespace t2 = ::pristi::tensor;
using t2::Tensor;

TEST(ClampOp, ValuesAndGradient) {
  Tensor x({5}, {-2.0f, -0.5f, 0.0f, 0.5f, 2.0f});
  Tensor clamped = t2::Clamp(x, -1.0f, 1.0f);
  EXPECT_TRUE(t2::AllClose(clamped, Tensor({5}, {-1, -0.5, 0, 0.5, 1})));
  // Gradient: pass-through inside, zero outside.
  ag2::Variable v(x, true);
  ag2::SumAll(ag2::Clamp(v, -1.0f, 1.0f)).Backward();
  EXPECT_TRUE(t2::AllClose(v.grad(), Tensor({5}, {0, 1, 1, 1, 0})));
}

TEST(WhereOp, SelectsAndRoutesGradient) {
  Tensor cond({4}, {1, 0, 1, 0});
  ag2::Variable a(Tensor({4}, {10, 20, 30, 40}), true);
  ag2::Variable b(Tensor({4}, {1, 2, 3, 4}), true);
  ag2::Variable y = ag2::Where(cond, a, b);
  EXPECT_TRUE(t2::AllClose(y.value(), Tensor({4}, {10, 2, 30, 4})));
  ag2::SumAll(y).Backward();
  EXPECT_TRUE(t2::AllClose(a.grad(), Tensor({4}, {1, 0, 1, 0})));
  EXPECT_TRUE(t2::AllClose(b.grad(), Tensor({4}, {0, 1, 0, 1})));
}

TEST(StackOp, AddsLeadingAxis) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({2, 3}, {7, 8, 9, 10, 11, 12});
  Tensor stacked = t2::Stack({a, b});
  EXPECT_EQ(stacked.shape(), (t2::Shape{2, 2, 3}));
  EXPECT_FLOAT_EQ(stacked.at({0, 1, 2}), 6.0f);
  EXPECT_FLOAT_EQ(stacked.at({1, 0, 0}), 7.0f);
}

TEST(ClampOp, GradCheckAwayFromBoundaries) {
  Rng rng(31);
  Tensor x = Tensor::Randn({6}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    // keep inputs away from the clamp kinks for finite differences
    if (std::fabs(std::fabs(x[i]) - 1.0f) < 0.1f) x[i] = 0.5f;
  }
  auto r = ag2::CheckGradients(
      [](std::vector<ag2::Variable>& v) {
        return ag2::SumAll(ag2::Square(ag2::Clamp(v[0], -1.0f, 1.0f)));
      },
      {x});
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace pristi
