// Tests for sensor-graph construction and transition-matrix normalization.

#include "graph/adjacency.h"

#include <cmath>

#include <gtest/gtest.h>

namespace pristi::graph {
namespace {

namespace t = ::pristi::tensor;
using t::Shape;
using t::Tensor;

TEST(SensorLocations, ShapeAndRange) {
  Rng rng(1);
  Tensor coords = GenerateSensorLocations(30, rng);
  EXPECT_EQ(coords.shape(), (Shape{30, 2}));
  for (int64_t i = 0; i < coords.numel(); ++i) {
    EXPECT_GE(coords[i], 0.0f);
    EXPECT_LE(coords[i], 1.0f);
  }
}

TEST(PairwiseDistancesFn, SymmetricZeroDiagonal) {
  Rng rng(2);
  Tensor coords = GenerateSensorLocations(12, rng);
  Tensor dist = PairwiseDistances(coords);
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_FLOAT_EQ(dist.at({i, i}), 0.0f);
    for (int64_t j = 0; j < 12; ++j) {
      EXPECT_FLOAT_EQ(dist.at({i, j}), dist.at({j, i}));
      EXPECT_GE(dist.at({i, j}), 0.0f);
    }
  }
}

TEST(PairwiseDistancesFn, TriangleInequalityHolds) {
  Rng rng(3);
  Tensor coords = GenerateSensorLocations(8, rng);
  Tensor dist = PairwiseDistances(coords);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      for (int64_t k = 0; k < 8; ++k) {
        EXPECT_LE(dist.at({i, j}),
                  dist.at({i, k}) + dist.at({k, j}) + 1e-5f);
      }
    }
  }
}

TEST(GaussianKernel, ThresholdSparsifies) {
  Rng rng(4);
  Tensor coords = GenerateSensorLocations(20, rng);
  Tensor dist = PairwiseDistances(coords);
  Tensor dense = GaussianKernelAdjacency(dist, -1.0, /*threshold=*/0.0);
  Tensor sparse = GaussianKernelAdjacency(dist, -1.0, /*threshold=*/0.5);
  int64_t dense_edges = 0, sparse_edges = 0;
  for (int64_t i = 0; i < dense.numel(); ++i) {
    dense_edges += dense[i] > 0 ? 1 : 0;
    sparse_edges += sparse[i] > 0 ? 1 : 0;
  }
  EXPECT_LT(sparse_edges, dense_edges);
  EXPECT_GT(sparse_edges, 0);
}

TEST(GaussianKernel, CloserNodesGetLargerWeights) {
  // Three collinear points: weight(0,1) > weight(0,2).
  Tensor coords({3, 2}, {0.0f, 0.0f, 0.1f, 0.0f, 0.5f, 0.0f});
  Tensor dist = PairwiseDistances(coords);
  Tensor adj = GaussianKernelAdjacency(dist, 0.3, 0.0);
  EXPECT_GT(adj.at({0, 1}), adj.at({0, 2}));
  EXPECT_FLOAT_EQ(adj.at({0, 0}), 0.0f);  // zero diagonal
}

TEST(GaussianKernel, WeightsWithinUnitInterval) {
  Rng rng(5);
  SensorGraph graph = BuildSensorGraph(25, rng);
  for (int64_t i = 0; i < graph.adjacency.numel(); ++i) {
    EXPECT_GE(graph.adjacency[i], 0.0f);
    EXPECT_LE(graph.adjacency[i], 1.0f);
  }
}

TEST(TransitionMatrixFn, RowsSumToOneOrZero) {
  Rng rng(6);
  SensorGraph graph = BuildSensorGraph(15, rng);
  Tensor transition = TransitionMatrix(graph.adjacency);
  for (int64_t i = 0; i < 15; ++i) {
    double row_sum = 0;
    for (int64_t j = 0; j < 15; ++j) row_sum += transition.at({i, j});
    EXPECT_TRUE(std::fabs(row_sum - 1.0) < 1e-5 || row_sum == 0.0)
        << "row " << i << " sums to " << row_sum;
  }
}

TEST(TransitionMatrixFn, BidirectionalPairDiffers) {
  // Construct an asymmetric adjacency to confirm forward != backward.
  Tensor adj = Tensor::Zeros({3, 3});
  adj.at({0, 1}) = 1.0f;
  adj.at({1, 2}) = 1.0f;
  auto supports = BidirectionalTransitions(adj);
  ASSERT_EQ(supports.size(), 2u);
  EXPECT_FALSE(t::AllClose(supports[0], supports[1]));
  // Forward: row 0 -> node 1. Backward: row 1 -> node 0.
  EXPECT_FLOAT_EQ(supports[0].at({0, 1}), 1.0f);
  EXPECT_FLOAT_EQ(supports[1].at({1, 0}), 1.0f);
}

TEST(Connectivity, ExtremesAreDistinctAndValid) {
  Rng rng(7);
  SensorGraph graph = BuildSensorGraph(20, rng);
  int64_t hi = HighestConnectivityNode(graph.adjacency);
  int64_t lo = LowestConnectivityNode(graph.adjacency);
  EXPECT_GE(hi, 0);
  EXPECT_LT(hi, 20);
  EXPECT_GE(lo, 0);
  EXPECT_LT(lo, 20);
  auto degrees = NodeDegrees(graph.adjacency);
  EXPECT_GE(degrees[static_cast<size_t>(hi)],
            degrees[static_cast<size_t>(lo)]);
}

// Property sweep: transition rows stay stochastic across sizes and seeds.
class TransitionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TransitionPropertyTest, RowStochastic) {
  Rng rng(100 + GetParam());
  SensorGraph graph = BuildSensorGraph(GetParam(), rng);
  for (const Tensor& support : BidirectionalTransitions(graph.adjacency)) {
    for (int64_t i = 0; i < GetParam(); ++i) {
      double row_sum = 0;
      for (int64_t j = 0; j < GetParam(); ++j) {
        float w = support.at({i, j});
        EXPECT_GE(w, 0.0f);
        row_sum += w;
      }
      EXPECT_TRUE(std::fabs(row_sum - 1.0) < 1e-5 || row_sum == 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransitionPropertyTest,
                         ::testing::Values(5, 12, 36, 64));

}  // namespace
}  // namespace pristi::graph
