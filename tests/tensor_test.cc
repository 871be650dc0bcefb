// Unit and property tests for the dense tensor substrate.

#include "tensor/tensor.h"

#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/pack_cache.h"

namespace pristi::tensor {
namespace {

TEST(TensorBasics, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 1);
}

TEST(TensorBasics, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(-1), 3);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorBasics, ScalarHasRankZero) {
  Tensor s = Tensor::Scalar(2.5f);
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_FLOAT_EQ(s[0], 2.5f);
}

TEST(TensorBasics, AtRowMajorLayout) {
  Tensor t = Tensor::Arange(6).Reshaped({2, 3});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_FLOAT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0f);
  t.at({1, 1}) = 42.0f;
  EXPECT_FLOAT_EQ(t[4], 42.0f);
}

TEST(TensorBasics, FullAndFill) {
  Tensor t = Tensor::Full({4}, 7.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t[i], 7.0f);
  t.Fill(-1.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t[i], -1.0f);
}

TEST(TensorBasics, RandnIsSeededDeterministic) {
  Rng rng1(123), rng2(123);
  Tensor a = Tensor::Randn({16}, rng1);
  Tensor b = Tensor::Randn({16}, rng2);
  EXPECT_TRUE(AllClose(a, b));
}

TEST(TensorBasics, RandnRoughlyStandard) {
  Rng rng(7);
  Tensor a = Tensor::Randn({20000}, rng);
  float mean = MeanAll(a);
  float var = MeanAll(Square(AddScalar(a, -mean)));
  EXPECT_NEAR(mean, 0.0f, 0.05f);
  EXPECT_NEAR(var, 1.0f, 0.05f);
}

// ---------------------------------------------------------------------------
// Elementwise and broadcasting
// ---------------------------------------------------------------------------

TEST(Broadcast, SameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {11, 22, 33, 44})));
}

TEST(Broadcast, RowVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row({1, 3}, {10, 20, 30});
  Tensor c = Add(a, row);
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(Broadcast, ColumnVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col({2, 1}, {100, 200});
  Tensor c = Add(a, col);
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {101, 102, 103, 204, 205, 206})));
}

TEST(Broadcast, TrailingAlignment) {
  // (2,2,2) + (2,) broadcasts over the last axis.
  Tensor a = Tensor::Ones({2, 2, 2});
  Tensor b({2}, {1, 2});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(c[0], 2.0f);
  EXPECT_FLOAT_EQ(c[1], 3.0f);
}

TEST(Broadcast, ShapeComputation) {
  EXPECT_EQ(BroadcastShape({2, 1, 3}, {4, 3}), (Shape{2, 4, 3}));
  EXPECT_EQ(BroadcastShape({}, {2, 2}), (Shape{2, 2}));
}

TEST(Broadcast, SumToShapeInvertsBroadcast) {
  Tensor g = Tensor::Ones({2, 4, 3});
  Tensor reduced = SumToShape(g, {4, 3});
  EXPECT_EQ(reduced.shape(), (Shape{4, 3}));
  EXPECT_FLOAT_EQ(reduced[0], 2.0f);
  Tensor reduced2 = SumToShape(g, {2, 1, 3});
  EXPECT_EQ(reduced2.shape(), (Shape{2, 1, 3}));
  EXPECT_FLOAT_EQ(reduced2[0], 4.0f);
}

TEST(Elementwise, SubMulDiv) {
  Tensor a({3}, {4, 9, 16});
  Tensor b({3}, {2, 3, 4});
  EXPECT_TRUE(AllClose(Sub(a, b), Tensor({3}, {2, 6, 12})));
  EXPECT_TRUE(AllClose(Mul(a, b), Tensor({3}, {8, 27, 64})));
  EXPECT_TRUE(AllClose(Div(a, b), Tensor({3}, {2, 3, 4})));
}

TEST(Elementwise, UnaryOps) {
  Tensor a({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_TRUE(AllClose(Relu(a), Tensor({3}, {0, 0, 2})));
  EXPECT_TRUE(AllClose(Neg(a), Tensor({3}, {1, 0, -2})));
  EXPECT_TRUE(AllClose(Abs(a), Tensor({3}, {1, 0, 2})));
  EXPECT_TRUE(AllClose(Square(a), Tensor({3}, {1, 0, 4})));
  Tensor e = Exp(a);
  EXPECT_NEAR(e[0], std::exp(-1.0f), 1e-6f);
  EXPECT_NEAR(e[2], std::exp(2.0f), 1e-5f);
  Tensor s = Sigmoid(Tensor({1}, {0.0f}));
  EXPECT_NEAR(s[0], 0.5f, 1e-6f);
  Tensor sq = Sqrt(Tensor({2}, {4.0f, 9.0f}));
  EXPECT_TRUE(AllClose(sq, Tensor({2}, {2, 3})));
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

TEST(MatMulOps, TwoByTwo) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  EXPECT_TRUE(AllClose(MatMul(a, b), Tensor({2, 2}, {19, 22, 43, 50})));
}

TEST(MatMulOps, RectangularAgainstHandComputed) {
  Tensor a({2, 3}, {1, 0, 2, -1, 3, 1});
  Tensor b({3, 2}, {3, 1, 2, 1, 1, 0});
  EXPECT_TRUE(AllClose(MatMul(a, b), Tensor({2, 2}, {5, 1, 4, 2})));
}

TEST(MatMulOps, IdentityIsNoOp) {
  Rng rng(1);
  Tensor a = Tensor::Randn({5, 5}, rng);
  Tensor eye = Tensor::Zeros({5, 5});
  for (int64_t i = 0; i < 5; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_TRUE(AllClose(MatMul(a, eye), a, 1e-5f));
  EXPECT_TRUE(AllClose(MatMul(eye, a), a, 1e-5f));
}

TEST(MatMulOps, BatchedMatchesLoopOfMatMul) {
  Rng rng(2);
  Tensor a = Tensor::Randn({3, 2, 4}, rng);
  Tensor b = Tensor::Randn({3, 4, 5}, rng);
  Tensor c = BatchedMatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor ai = SliceAxis(a, 0, bi, 1).Reshaped({2, 4});
    Tensor bi_t = SliceAxis(b, 0, bi, 1).Reshaped({4, 5});
    Tensor ci = SliceAxis(c, 0, bi, 1).Reshaped({2, 5});
    EXPECT_TRUE(AllClose(ci, MatMul(ai, bi_t), 1e-4f));
  }
}

TEST(MatMulOps, MatMulLastDimEqualsFlattenedMatMul) {
  Rng rng(3);
  Tensor x = Tensor::Randn({2, 3, 4}, rng);
  Tensor w = Tensor::Randn({4, 6}, rng);
  Tensor y = MatMulLastDim(x, w);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 6}));
  Tensor y2 = MatMul(x.Reshaped({6, 4}), w);
  EXPECT_TRUE(AllClose(y, y2.Reshaped({2, 3, 6}), 1e-4f));
}

TEST(MatMulOps, MatMulNodeDimAppliesToSecondToLastAxis) {
  // p is (2,3): maps 3 "nodes" to 2; x is (batch=2, nodes=3, d=2).
  Tensor p({2, 3}, {1, 0, 0, 0, 1, 1});
  Tensor x({2, 3, 2}, {1, 2, 3, 4, 5, 6,
                       7, 8, 9, 10, 11, 12});
  Tensor y = MatMulNodeDim(p, x);
  EXPECT_EQ(y.shape(), (Shape{2, 2, 2}));
  // First batch: row0 = node0 = (1,2); row1 = node1+node2 = (8,10).
  EXPECT_FLOAT_EQ(y.at({0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 1}), 2.0f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 0}), 8.0f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 1}), 10.0f);
  // Second batch: row1 = (9+11, 10+12).
  EXPECT_FLOAT_EQ(y.at({1, 1, 0}), 20.0f);
  EXPECT_FLOAT_EQ(y.at({1, 1, 1}), 22.0f);
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

TEST(Reductions, SumMeanMaxMin) {
  Tensor a({4}, {1, -2, 3, 6});
  EXPECT_FLOAT_EQ(SumAll(a), 8.0f);
  EXPECT_FLOAT_EQ(MeanAll(a), 2.0f);
  EXPECT_FLOAT_EQ(MaxAll(a), 6.0f);
  EXPECT_FLOAT_EQ(MinAll(a), -2.0f);
}

TEST(Reductions, SumAxis) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor rows = SumAxis(a, 1);
  EXPECT_EQ(rows.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(rows[0], 6.0f);
  EXPECT_FLOAT_EQ(rows[1], 15.0f);
  Tensor cols = SumAxis(a, 0, /*keepdim=*/true);
  EXPECT_EQ(cols.shape(), (Shape{1, 3}));
  EXPECT_FLOAT_EQ(cols[0], 5.0f);
  EXPECT_FLOAT_EQ(cols[2], 9.0f);
  Tensor mean_rows = MeanAxis(a, -1);
  EXPECT_FLOAT_EQ(mean_rows[0], 2.0f);
  EXPECT_FLOAT_EQ(mean_rows[1], 5.0f);
}

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

TEST(ShapeOps, PermuteTransposes2D) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor at = Permute(a, {1, 0});
  EXPECT_EQ(at.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(at.at({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(at.at({0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(at.at({2, 1}), 6.0f);
}

TEST(ShapeOps, PermuteRoundTrips3D) {
  Rng rng(5);
  Tensor a = Tensor::Randn({2, 3, 4}, rng);
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  Tensor back = Permute(p, {1, 2, 0});
  EXPECT_TRUE(AllClose(back, a));
}

TEST(ShapeOps, PermutePreservesEntries4D) {
  Rng rng(6);
  Tensor a = Tensor::Randn({2, 3, 4, 5}, rng);
  Tensor p = Permute(a, {0, 2, 1, 3});
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      for (int64_t k = 0; k < 4; ++k) {
        for (int64_t l = 0; l < 5; ++l) {
          EXPECT_FLOAT_EQ(p.at({i, k, j, l}), a.at({i, j, k, l}));
        }
      }
    }
  }
}

TEST(ShapeOps, ConcatAlongEachAxis) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor rows = Concat({a, b}, 0);
  EXPECT_EQ(rows.shape(), (Shape{4, 2}));
  EXPECT_FLOAT_EQ(rows.at({2, 0}), 5.0f);
  Tensor cols = Concat({a, b}, 1);
  EXPECT_EQ(cols.shape(), (Shape{2, 4}));
  EXPECT_TRUE(AllClose(cols, Tensor({2, 4}, {1, 2, 5, 6, 3, 4, 7, 8})));
  Tensor neg = Concat({a, b}, -1);
  EXPECT_TRUE(AllClose(neg, cols));
}

TEST(ShapeOps, SliceInvertseConcat) {
  Rng rng(8);
  Tensor a = Tensor::Randn({2, 3}, rng);
  Tensor b = Tensor::Randn({2, 5}, rng);
  Tensor cat = Concat({a, b}, 1);
  EXPECT_TRUE(AllClose(SliceAxis(cat, 1, 0, 3), a));
  EXPECT_TRUE(AllClose(SliceAxis(cat, 1, 3, 5), b));
}

TEST(ShapeOps, TransposeLast2OnBatch) {
  Rng rng(9);
  Tensor a = Tensor::Randn({2, 3, 4}, rng);
  Tensor at = TransposeLast2(a);
  EXPECT_EQ(at.shape(), (Shape{2, 4, 3}));
  EXPECT_FLOAT_EQ(at.at({1, 2, 1}), a.at({1, 1, 2}));
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

TEST(Softmax, RowsSumToOne) {
  Rng rng(10);
  Tensor a = Tensor::Randn({7, 5}, rng);
  Tensor s = SoftmaxLastDim(a);
  for (int64_t r = 0; r < 7; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 5; ++c) sum += s.at({r, c});
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, KnownValues) {
  Tensor a({1, 2}, {0.0f, 0.0f});
  Tensor s = SoftmaxLastDim(a);
  EXPECT_NEAR(s[0], 0.5f, 1e-6f);
  EXPECT_NEAR(s[1], 0.5f, 1e-6f);
}

TEST(Softmax, StableUnderLargeInputs) {
  Tensor a({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = SoftmaxLastDim(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s[i], 1.0f / 3.0f, 1e-5f);
}

TEST(Softmax, ShiftInvariance) {
  Rng rng(11);
  Tensor a = Tensor::Randn({4, 6}, rng);
  Tensor shifted = AddScalar(a, 5.0f);
  EXPECT_TRUE(AllClose(SoftmaxLastDim(a), SoftmaxLastDim(shifted), 1e-5f));
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(Serialization, RoundTrip) {
  Rng rng(12);
  Tensor a = Tensor::Randn({3, 4, 2}, rng);
  std::stringstream buf;
  WriteTensor(buf, a);
  Tensor b = ReadTensor(buf);
  EXPECT_TRUE(AllClose(a, b, 0.0f, 0.0f));
}

TEST(Serialization, ScalarRoundTrip) {
  Tensor a = Tensor::Scalar(-3.5f);
  std::stringstream buf;
  WriteTensor(buf, a);
  Tensor b = ReadTensor(buf);
  EXPECT_EQ(b.ndim(), 0);
  EXPECT_FLOAT_EQ(b[0], -3.5f);
}

// ---------------------------------------------------------------------------
// Parameterized property sweep: matmul distributes over addition for a
// variety of shapes (exercises the accumulate kernel broadly).
// ---------------------------------------------------------------------------

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, DistributesOverAddition) {
  auto [m, k, n] = GetParam();
  Rng rng(100 + m * 7 + k * 3 + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = Tensor::Randn({k, n}, rng);
  Tensor lhs = MatMul(a, Add(b, c));
  Tensor rhs = Add(MatMul(a, b), MatMul(a, c));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-3f, 1e-3f))
      << "m=" << m << " k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(8, 8, 8),
                      std::make_tuple(16, 4, 2), std::make_tuple(3, 17, 5),
                      std::make_tuple(32, 32, 32)));

// Broadcasting equivalence property across shape pairs.
class BroadcastPairTest
    : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(BroadcastPairTest, MulCommutes) {
  auto [sa, sb] = GetParam();
  Rng rng(55);
  Tensor a = Tensor::Randn(sa, rng);
  Tensor b = Tensor::Randn(sb, rng);
  EXPECT_TRUE(AllClose(Mul(a, b), Mul(b, a)));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, BroadcastPairTest,
    ::testing::Values(std::make_pair(Shape{2, 3}, Shape{3}),
                      std::make_pair(Shape{4, 1, 2}, Shape{1, 5, 2}),
                      std::make_pair(Shape{6}, Shape{1}),
                      std::make_pair(Shape{2, 2, 2}, Shape{2, 2, 2}),
                      std::make_pair(Shape{3, 1}, Shape{1, 4})));

}  // namespace
}  // namespace pristi::tensor

namespace pristi::tensor {
namespace {

// Serialization round-trips across ranks 0-4 (parameterized sweep).
class SerializationShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(SerializationShapeTest, RoundTrip) {
  Rng rng(101);
  Tensor a = Tensor::Randn(GetParam(), rng);
  std::stringstream buffer;
  WriteTensor(buffer, a);
  Tensor b = ReadTensor(buffer);
  EXPECT_TRUE(AllClose(a, b, 0.0f, 0.0f));
  EXPECT_EQ(a.shape(), b.shape());
}

INSTANTIATE_TEST_SUITE_P(Ranks, SerializationShapeTest,
                         ::testing::Values(Shape{}, Shape{7}, Shape{3, 4},
                                           Shape{2, 3, 4},
                                           Shape{2, 2, 3, 2}));

// Permute composition property: applying a permutation then its inverse is
// the identity for every 3-axis permutation.
class PermuteInverseTest
    : public ::testing::TestWithParam<std::vector<int64_t>> {};

TEST_P(PermuteInverseTest, InverseRestores) {
  Rng rng(102);
  Tensor a = Tensor::Randn({3, 4, 5}, rng);
  const auto& perm = GetParam();
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  EXPECT_TRUE(AllClose(Permute(Permute(a, perm), inverse), a, 0.0f, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(
    AllPerms, PermuteInverseTest,
    ::testing::Values(std::vector<int64_t>{0, 1, 2},
                      std::vector<int64_t>{0, 2, 1},
                      std::vector<int64_t>{1, 0, 2},
                      std::vector<int64_t>{1, 2, 0},
                      std::vector<int64_t>{2, 0, 1},
                      std::vector<int64_t>{2, 1, 0}));

TEST(WhereTensor, MatchesManualSelect) {
  Rng rng(103);
  Tensor cond({4}, {1, 0, 0, 1});
  Tensor a = Tensor::Randn({4}, rng);
  Tensor b = Tensor::Randn({4}, rng);
  Tensor out = Where(cond, a, b);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(out[i], cond[i] > 0.5f ? a[i] : b[i]);
  }
}

TEST(ClampTensor, BoundsRespected) {
  Rng rng(104);
  Tensor a = Tensor::Randn({64}, rng);
  Tensor clamped = Clamp(a, -0.5f, 0.5f);
  EXPECT_GE(MinAll(clamped), -0.5f);
  EXPECT_LE(MaxAll(clamped), 0.5f);
  // Interior values untouched.
  for (int64_t i = 0; i < 64; ++i) {
    if (a[i] > -0.5f && a[i] < 0.5f) {
      EXPECT_FLOAT_EQ(clamped[i], a[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared storage: copy-on-write headers, views, and the buffer pool
// ---------------------------------------------------------------------------

TEST(SharedStorage, CopyIsSharedUntilWritten) {
  Tensor a = Tensor::Arange(6).Reshaped({2, 3});
  Tensor b = a;  // header copy: same storage
  EXPECT_TRUE(a.SharesStorage(b));
  // Const access does not fork.
  const Tensor& cb = b;
  EXPECT_FLOAT_EQ(cb[3], 3.0f);
  EXPECT_TRUE(a.SharesStorage(b));
  // First mutating access forks; the sibling keeps its values.
  b.data()[3] = 42.0f;
  EXPECT_FALSE(a.SharesStorage(b));
  EXPECT_FLOAT_EQ(a[3], 3.0f);
  EXPECT_FLOAT_EQ(b[3], 42.0f);
}

TEST(SharedStorage, MutatingTheOriginalDetachesFromCopies) {
  Tensor a = Tensor::Arange(4);
  Tensor b = a;
  a.Fill(7.0f);  // mutates a; b must not see it
  EXPECT_FLOAT_EQ(b[0], 0.0f);
  EXPECT_FLOAT_EQ(b[3], 3.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a[i], 7.0f);
}

TEST(SharedStorage, ReshapedIsZeroCopyView) {
  Tensor a = Tensor::Arange(12);
  Tensor m = a.Reshaped({3, 4});
  EXPECT_TRUE(a.SharesStorage(m));
  EXPECT_EQ(m.ndim(), 2);
  EXPECT_FLOAT_EQ(m.at({2, 3}), 11.0f);
}

TEST(SharedStorage, SliceLeadingIsViewAtOffset) {
  Tensor a = Tensor::Arange(24).Reshaped({4, 3, 2});
  Tensor s = a.SliceLeading(1, 2);  // rows 1..2
  EXPECT_TRUE(s.SharesStorage(a));
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_FLOAT_EQ(s.at({0, 0, 0}), 6.0f);
  EXPECT_FLOAT_EQ(s.at({1, 2, 1}), 17.0f);
  // SliceAxis routes axis 0 through the view path.
  Tensor via_axis = SliceAxis(a, 0, 1, 2);
  EXPECT_TRUE(via_axis.SharesStorage(a));
  // Writing through the view forks it away from the base.
  s.data()[0] = -1.0f;
  EXPECT_FALSE(s.SharesStorage(a));
  EXPECT_FLOAT_EQ(a.at({1, 0, 0}), 6.0f);
  EXPECT_FLOAT_EQ(s.at({0, 0, 0}), -1.0f);
}

TEST(SharedStorage, CloneIsIndependentEagerly) {
  Tensor a = Tensor::Arange(5);
  Tensor c = a.Clone();
  EXPECT_FALSE(c.SharesStorage(a));
  a.Fill(9.0f);
  for (int64_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(c[i], static_cast<float>(i));
}

TEST(SharedStorage, EmptyTensorsDoNotShare) {
  Tensor a, b;
  EXPECT_FALSE(a.SharesStorage(b));
  EXPECT_EQ(a.data(), nullptr);
}

TEST(SharedStorage, AllocStatsCountRequests) {
  AllocStats before = GetAllocStats();
  { Tensor t = Tensor::Zeros({128}); }
  AllocStats after = GetAllocStats();
  EXPECT_GT(after.requests, before.requests);
  EXPECT_GE(after.bytes_requested,
            before.bytes_requested + 128 * sizeof(float));
}

TEST(SharedStorage, PoolRecyclesFreedBlocks) {
  if (!BufferPoolEnabled()) GTEST_SKIP() << "PRISTI_BUFFER_POOL=0";
  // Prime the pool's bucket, then re-allocate the same size: the second
  // round must be served from the pool, not the heap.
  { Tensor warm = Tensor::Zeros({512}); }
  AllocStats before = GetAllocStats();
  { Tensor t = Tensor::Zeros({512}); }
  AllocStats after = GetAllocStats();
  EXPECT_GT(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
}

TEST(SharedStorage, RecycledBlocksArriveZeroed) {
  // Tensor(Shape) zero-fills even when the pool hands back a dirty block —
  // accumulation kernels rely on it, and it keeps results bit-identical
  // with the pool on or off.
  {
    Tensor dirty = Tensor::Zeros({256});
    dirty.Fill(3.5f);
  }
  Tensor fresh = Tensor::Zeros({256});
  for (int64_t i = 0; i < 256; ++i) EXPECT_EQ(fresh[i], 0.0f);
}

// The pool must not change numerics no matter how allocations interleave
// with worker threads: run the same computation with a cold pool, a warm
// pool, and under different thread counts, and demand bit identity.
TEST(SharedStorage, PoolReuseIsDeterministicAcrossThreadCounts) {
  auto compute = [] {
    Rng rng(41);
    Tensor a = Tensor::Randn({8, 16}, rng);
    Tensor b = Tensor::Randn({16, 8}, rng);
    Tensor c = MatMul(a, b);
    Tensor d = SoftmaxLastDim(c);
    return SumAxis(d, 0);
  };
  int64_t saved = ParallelThreadCount();
  SetParallelThreadCount(1);
  Tensor single_cold = compute();
  Tensor single_warm = compute();  // pool now primed with recycled blocks
  SetParallelThreadCount(4);
  Tensor multi = compute();
  SetParallelThreadCount(saved);
  ASSERT_EQ(single_cold.numel(), multi.numel());
  for (int64_t i = 0; i < single_cold.numel(); ++i) {
    EXPECT_EQ(single_cold[i], single_warm[i]) << "warm pool drifted at " << i;
    EXPECT_EQ(single_cold[i], multi[i]) << "thread count drifted at " << i;
  }
}

TEST(Serialization, ViewSerializesAsContiguous) {
  // A view-backed tensor writes the same bytes as an owned copy with the
  // same logical contents.
  Tensor base = Tensor::Arange(24).Reshaped({4, 6});
  Tensor view = base.SliceLeading(2, 1).Reshaped({6});
  Tensor owned = view.Clone();
  std::stringstream via_view, via_owned;
  WriteTensor(via_view, view);
  WriteTensor(via_owned, owned);
  EXPECT_EQ(via_view.str(), via_owned.str());
  Tensor back = ReadTensor(via_view);
  EXPECT_TRUE(AllClose(back, owned, 0.0f, 0.0f));
}

// ---------------------------------------------------------------------------
// Tiled GEMM kernel layer (tensor/kernels/): exact equality against the
// retained reference kernel, thread-count bit-invariance, and the pack
// cache's identity/version behavior.
// ---------------------------------------------------------------------------

// Bitwise comparison helper: the tiled layer promises exact equality, so no
// tolerance anywhere in this section.
void ExpectBitEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverged at flat index " << i;
  }
}

// Shapes straddling every tile boundary: 1, odd, kRowTile +/- 1,
// kColTile +/- 1, and 2*kColTile + 1.
const int64_t kOddDims[] = {1, 3, 5, 15, 17, 33};

TEST(KernelLayer, TiledMatchesReferenceOnOddShapes) {
  namespace kn = kernels;
  Rng rng(71);
  for (int64_t m : kOddDims) {
    for (int64_t k : kOddDims) {
      for (int64_t n : kOddDims) {
        Tensor a = Tensor::Randn({m, k}, rng);
        Tensor b = Tensor::Randn({k, n}, rng);
        Tensor a_t = TransposeLast2(a);  // stored (k, m)
        Tensor b_t = TransposeLast2(b);  // stored (n, k)

        Tensor ref(Shape{m, n});
        kn::ReferenceGemm(kn::Layout::kNormal, kn::Layout::kNormal, m, n, k,
                          a.data(), b.data(), ref.data());

        ExpectBitEqual(MatMul(a, b), ref, "MatMul(NN)");
        ExpectBitEqual(MatMulNT(a, b_t), ref, "MatMulNT");
        ExpectBitEqual(MatMulTN(a_t, b), ref, "MatMulTN");
      }
    }
  }
}

TEST(KernelLayer, BatchedTiledMatchesReference) {
  namespace kn = kernels;
  Rng rng(72);
  const int64_t batch = 3, m = 17, k = 5, n = 33;
  Tensor a = Tensor::Randn({batch, m, k}, rng);
  Tensor b = Tensor::Randn({batch, k, n}, rng);

  Tensor ref(Shape{batch, m, n});
  for (int64_t bi = 0; bi < batch; ++bi) {
    kn::ReferenceGemm(kn::Layout::kNormal, kn::Layout::kNormal, m, n, k,
                      a.data() + bi * m * k, b.data() + bi * k * n,
                      ref.data() + bi * m * n);
  }

  ExpectBitEqual(BatchedMatMul(a, b), ref, "BatchedMatMul");
  ExpectBitEqual(BatchedMatMulNT(a, TransposeLast2(b)), ref,
                 "BatchedMatMulNT");
  ExpectBitEqual(BatchedMatMulTN(TransposeLast2(a), b), ref,
                 "BatchedMatMulTN");
}

TEST(KernelLayer, TransposedSharedOperandVariantsMatchComposition) {
  Rng rng(73);
  Tensor x = Tensor::Randn({2, 3, 7}, rng);
  Tensor w = Tensor::Randn({5, 7}, rng);  // (k_in=5, k_out=7)
  // (..., k_out) -> (..., k_in) equals multiplying by the materialized wᵀ.
  ExpectBitEqual(MatMulLastDimT(x, w), MatMulLastDim(x, TransposeLast2(w)),
                 "MatMulLastDimT");

  Tensor p = Tensor::Randn({4, 3}, rng);  // (rows_out=4, rows_in=3)
  Tensor y = Tensor::Randn({2, 4, 6}, rng);
  ExpectBitEqual(MatMulNodeDimT(p, y), MatMulNodeDim(TransposeLast2(p), y),
                 "MatMulNodeDimT");
}

TEST(KernelLayer, BitInvariantAcrossThreadCounts) {
  // Large enough that the row-block ParallelFor actually splits at 4
  // threads (2*m*n*k well past kMinFlopsPerChunk).
  auto compute = [] {
    Rng rng(74);
    Tensor a = Tensor::Randn({128, 64}, rng);
    Tensor b = Tensor::Randn({96, 64}, rng);
    Tensor qk = MatMulNT(a, b);                    // (128, 96)
    Tensor v = Tensor::Randn({96, 64}, rng);
    return MatMul(SoftmaxLastDim(qk), v);
  };
  int64_t saved = ParallelThreadCount();
  SetParallelThreadCount(1);
  Tensor single = compute();
  SetParallelThreadCount(4);
  Tensor multi = compute();
  SetParallelThreadCount(saved);
  ExpectBitEqual(single, multi, "thread-count invariance");
}

TEST(KernelLayer, PackCacheHitsOnRepeatAndInvalidatesOnMutation) {
  namespace kn = kernels;
  Rng rng(75);
  Tensor x = Tensor::Randn({6, 9}, rng);
  Tensor w = Tensor::Randn({9, 4}, rng);

  kn::KernelStats before = kn::GetKernelStats();
  Tensor first = MatMulLastDim(x, w);
  kn::KernelStats after_first = kn::GetKernelStats();
  EXPECT_EQ(after_first.pack_cache_hits, before.pack_cache_hits);
  EXPECT_GT(after_first.pack_cache_misses, before.pack_cache_misses);

  // Same weight storage, same version: the packed panel is reused.
  Tensor second = MatMulLastDim(x, w);
  kn::KernelStats after_second = kn::GetKernelStats();
  EXPECT_EQ(after_second.pack_cache_hits, after_first.pack_cache_hits + 1);
  EXPECT_EQ(after_second.pack_cache_misses, after_first.pack_cache_misses);
  ExpectBitEqual(first, second, "cached-panel result");

  // Any mutating access bumps the storage version: next call must miss,
  // repack, and see the new bytes.
  w.ScaleInPlace(2.0f);
  Tensor third = MatMulLastDim(x, w);
  kn::KernelStats after_third = kn::GetKernelStats();
  EXPECT_EQ(after_third.pack_cache_hits, after_second.pack_cache_hits);
  EXPECT_GT(after_third.pack_cache_misses, after_second.pack_cache_misses);
  ExpectBitEqual(third, MulScalar(first, 2.0f), "post-mutation result");
}

TEST(KernelLayer, PackCacheDistinguishesCopiesAfterCowFork) {
  namespace kn = kernels;
  Rng rng(76);
  Tensor x = Tensor::Randn({4, 9}, rng);
  Tensor w = Tensor::Randn({9, 4}, rng);
  Tensor w_copy = w;  // shares storage: same id until a mutation forks it
  EXPECT_EQ(w.storage_id(), w_copy.storage_id());
  // Scale by a power of two so x·(2w) == 2·(x·w) holds bitwise (every
  // partial product and partial sum scales exactly).
  w_copy.ScaleInPlace(2.0f);  // COW fork: fresh storage, fresh id
  EXPECT_NE(w.storage_id(), w_copy.storage_id());
  // Distinct identities cache distinct panels — the fork cannot poison the
  // original's cache entry.
  Tensor via_w = MatMulLastDim(x, w);
  Tensor via_copy = MatMulLastDim(x, w_copy);
  ExpectBitEqual(via_copy, MulScalar(via_w, 2.0f), "forked-weight result");
}

TEST(KernelLayer, PackCacheDropsEntriesWhenStorageDies) {
  namespace kn = kernels;
  if (!kn::PackCacheEnabled()) GTEST_SKIP() << "pack cache off";
  Rng rng(78);
  Tensor x = Tensor::Randn({5, 24}, rng);
  kn::KernelStats before = kn::GetKernelStats();
  {
    Tensor w = Tensor::Randn({24, 8}, rng);
    Tensor y = MatMulLastDim(x, w);
    kn::KernelStats cached = kn::GetKernelStats();
    EXPECT_GT(cached.pack_cache_bytes, before.pack_cache_bytes)
        << "weight panel was not cached";
  }
  // ~Storage drops the panel: the dead id can never hit again, so keeping
  // it resident could only displace live weight panels under the byte cap.
  kn::KernelStats after = kn::GetKernelStats();
  EXPECT_EQ(after.pack_cache_bytes, before.pack_cache_bytes)
      << "dead storage's panel stayed resident";
}

// ---------------------------------------------------------------------------
// Pooled data movement: the ops below split across the pool only above
// kElementwiseMinChunk (16384) elements, so every case is larger than that,
// and its row length does not divide 16384, so chunk edges fall inside
// rows. Each op must match a plain serial loop bitwise at 1 and 4 threads.
// ---------------------------------------------------------------------------

template <typename Op>
void ExpectSerialAtOneAndFourThreads(const Op& op, const Tensor& serial,
                                     const char* what) {
  const int64_t saved = ParallelThreadCount();
  SetParallelThreadCount(1);
  Tensor single = op();
  SetParallelThreadCount(4);
  Tensor multi = op();
  SetParallelThreadCount(saved);
  ExpectBitEqual(single, serial, what);
  ExpectBitEqual(multi, serial, what);
}

// out[i] = a[j] where axis q of j is axis perm^-1(q) of i (4-D only).
Tensor SerialPermute4(const Tensor& a, const std::vector<int64_t>& perm) {
  Shape out_shape;
  for (int64_t p : perm) out_shape.push_back(a.dim(p));
  Tensor out(out_shape);
  int64_t i[4];
  int64_t j[4];
  for (i[0] = 0; i[0] < out_shape[0]; ++i[0]) {
    for (i[1] = 0; i[1] < out_shape[1]; ++i[1]) {
      for (i[2] = 0; i[2] < out_shape[2]; ++i[2]) {
        for (i[3] = 0; i[3] < out_shape[3]; ++i[3]) {
          for (int q = 0; q < 4; ++q) j[perm[static_cast<size_t>(q)]] = i[q];
          out.at({i[0], i[1], i[2], i[3]}) = a.at({j[0], j[1], j[2], j[3]});
        }
      }
    }
  }
  return out;
}

TEST(PooledDataMovement, PermuteKeepingAndMovingTheLastAxis) {
  Rng rng(81);
  const Tensor a = Tensor::Randn({7, 37, 11, 13}, rng);  // 37,037 floats
  for (const std::vector<int64_t>& perm :
       {std::vector<int64_t>{2, 0, 1, 3}, std::vector<int64_t>{1, 0, 2, 3},
        std::vector<int64_t>{3, 1, 0, 2}, std::vector<int64_t>{0, 1, 3, 2}}) {
    ExpectSerialAtOneAndFourThreads([&] { return Permute(a, perm); },
                                    SerialPermute4(a, perm), "Permute");
  }
}

TEST(PooledDataMovement, SuffixBroadcastInBothOperandOrders) {
  Rng rng(82);
  const Tensor a = Tensor::Randn({9, 41, 7, 13}, rng);  // rows of 91
  const Tensor b = Tensor::Randn({1, 7, 13}, rng);
  Tensor a_minus_b(a.shape());
  Tensor b_minus_a(a.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    a_minus_b[i] = a[i] - b[i % b.numel()];
    b_minus_a[i] = b[i % b.numel()] - a[i];
  }
  ExpectSerialAtOneAndFourThreads([&] { return Sub(a, b); }, a_minus_b,
                                  "Sub(full, suffix)");
  ExpectSerialAtOneAndFourThreads([&] { return Sub(b, a); }, b_minus_a,
                                  "Sub(suffix, full)");
}

TEST(PooledDataMovement, GeneralBroadcast) {
  Rng rng(83);
  const Tensor a = Tensor::Randn({9, 41, 1, 13}, rng);
  const Tensor b = Tensor::Randn({41, 7, 1}, rng);
  Tensor serial(Shape{9, 41, 7, 13});  // 33,579 floats
  for (int64_t i0 = 0; i0 < 9; ++i0) {
    for (int64_t i1 = 0; i1 < 41; ++i1) {
      for (int64_t i2 = 0; i2 < 7; ++i2) {
        for (int64_t i3 = 0; i3 < 13; ++i3) {
          serial.at({i0, i1, i2, i3}) =
              a.at({i0, i1, 0, i3}) / b.at({i1, i2, 0});
        }
      }
    }
  }
  ExpectSerialAtOneAndFourThreads([&] { return Div(a, b); }, serial,
                                  "Div(general broadcast)");
}

TEST(PooledDataMovement, ConcatAndSliceOnTheLastAxis) {
  Rng rng(84);
  const std::vector<Tensor> parts = {Tensor::Randn({97, 23, 5}, rng),
                                     Tensor::Randn({97, 23, 7}, rng),
                                     Tensor::Randn({97, 23, 1}, rng)};
  Tensor concat(Shape{97, 23, 13});  // 29,003 floats
  for (int64_t o = 0; o < 97 * 23; ++o) {
    int64_t col = 0;
    for (const Tensor& p : parts) {
      const int64_t w = p.dim(-1);
      for (int64_t j = 0; j < w; ++j) concat[o * 13 + col++] = p[o * w + j];
    }
  }
  ExpectSerialAtOneAndFourThreads([&] { return Concat(parts, -1); }, concat,
                                  "Concat(axis=-1)");

  Tensor slice(Shape{97, 23, 9});  // 20,079 floats
  for (int64_t o = 0; o < 97 * 23; ++o) {
    for (int64_t j = 0; j < 9; ++j) slice[o * 9 + j] = concat[o * 13 + 3 + j];
  }
  ExpectSerialAtOneAndFourThreads([&] { return SliceAxis(concat, -1, 3, 9); },
                                  slice, "SliceAxis(axis=-1)");
}

TEST(PooledDataMovement, GemmPacksActivationPanelsPerWorker) {
  namespace kn = kernels;
  // m % kRowTile != 0, and far more row blocks than one chunk takes.
  const int64_t m = 4099, k = 32, n = 24;
  static_assert(4099 % kn::kRowTile != 0, "last row panel must be partial");
  Rng rng(85);
  const Tensor x = Tensor::Randn({m, k}, rng);
  const Tensor x_t = TransposeLast2(x);  // stored (k, m)
  const Tensor w = Tensor::Randn({k, n}, rng);
  Tensor ref(Shape{m, n});
  kn::ReferenceGemm(kn::Layout::kNormal, kn::Layout::kNormal, m, n, k,
                    x.data(), w.data(), ref.data());
  ExpectSerialAtOneAndFourThreads([&] { return MatMulLastDim(x, w); }, ref,
                                  "MatMulLastDim");
  ExpectSerialAtOneAndFourThreads([&] { return MatMulTN(x_t, w); }, ref,
                                  "MatMulTN");
}

TEST(KernelLayer, NoFusedMultiplyAdd) {
  namespace kn = kernels;
  // Draw operands where contracting the second step of the k=2 chain into
  // an FMA changes the result: strict = round(round(a1*b1) + round(a0*b0))
  // vs fused = fma(a1, b1, round(a0*b0)). Random draws hit one quickly.
  Rng rng(77);
  float a0 = 0.f, b0 = 0.f, a1 = 0.f, b1 = 0.f, strict = 0.f;
  bool found = false;
  for (int tries = 0; tries < 10000 && !found; ++tries) {
    Tensor t = Tensor::Randn({4}, rng);
    a0 = t[0];
    b0 = t[1];
    a1 = t[2];
    b1 = t[3];
    // volatile blocks the test's own compilation flags from fusing.
    volatile float p0 = a0 * b0;
    volatile float p1 = a1 * b1;
    strict = p0 + p1;
    found = strict != std::fma(a1, b1, p0);
  }
  ASSERT_TRUE(found) << "no FMA-sensitive operands drawn";
  // Every kernel must produce the twice-rounded chain. A compiler that
  // contracts `+=` — or re-fuses the AVX kernel's mul/add intrinsics after
  // inlining them into a -march=native caller — computes the fused value
  // instead, so this canary fails if -ffp-contract=off is ever dropped
  // from the build (CMakeLists.txt).
  Tensor a(Shape{1, 2});
  Tensor b(Shape{2, 1});
  a.data()[0] = a0;
  a.data()[1] = a1;
  b.data()[0] = b0;
  b.data()[1] = b1;
  Tensor ref(Shape{1, 1});
  kn::ReferenceGemm(kn::Layout::kNormal, kn::Layout::kNormal, 1, 1, 2,
                    a.data(), b.data(), ref.data());
  EXPECT_EQ(ref[0], strict) << "reference kernel contracted to FMA";
  EXPECT_EQ(MatMul(a, b)[0], strict) << "tiled kernel contracted to FMA";
}

}  // namespace
}  // namespace pristi::tensor
