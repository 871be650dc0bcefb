#include "graph/adjacency.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pristi::graph {

Tensor GenerateSensorLocations(int64_t n, Rng& rng, int64_t num_clusters,
                               double cluster_spread) {
  PRISTI_CHECK_GT(n, 0);
  PRISTI_CHECK_GT(num_clusters, 0);
  // Cluster centers uniform in the unit square, sensors Gaussian around them.
  std::vector<std::pair<double, double>> centers;
  centers.reserve(static_cast<size_t>(num_clusters));
  for (int64_t c = 0; c < num_clusters; ++c) {
    centers.emplace_back(rng.Uniform(0.15, 0.85), rng.Uniform(0.15, 0.85));
  }
  Tensor coords(tensor::Shape{n, 2});
  for (int64_t i = 0; i < n; ++i) {
    const auto& [cx, cy] = centers[static_cast<size_t>(
        rng.UniformInt(0, num_clusters - 1))];
    coords.at({i, 0}) =
        static_cast<float>(std::clamp(cx + rng.Normal(0, cluster_spread),
                                      0.0, 1.0));
    coords.at({i, 1}) =
        static_cast<float>(std::clamp(cy + rng.Normal(0, cluster_spread),
                                      0.0, 1.0));
  }
  return coords;
}

Tensor PairwiseDistances(const Tensor& coords) {
  PRISTI_CHECK_EQ(coords.ndim(), 2);
  PRISTI_CHECK_EQ(coords.dim(1), 2);
  int64_t n = coords.dim(0);
  Tensor dist(tensor::Shape{n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      double dx = coords.at({i, 0}) - coords.at({j, 0});
      double dy = coords.at({i, 1}) - coords.at({j, 1});
      float d = static_cast<float>(std::sqrt(dx * dx + dy * dy));
      dist.at({i, j}) = d;
      dist.at({j, i}) = d;
    }
  }
  return dist;
}

Tensor GaussianKernelAdjacency(const Tensor& distances, double sigma,
                               double threshold) {
  PRISTI_CHECK_EQ(distances.ndim(), 2);
  int64_t n = distances.dim(0);
  PRISTI_CHECK_EQ(n, distances.dim(1));
  if (sigma <= 0.0) {
    // Standard deviation of off-diagonal distances.
    double mean = 0.0;
    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        mean += distances.at({i, j});
        ++count;
      }
    }
    mean /= std::max<int64_t>(count, 1);
    double var = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        double d = distances.at({i, j}) - mean;
        var += d * d;
      }
    }
    var /= std::max<int64_t>(count, 1);
    sigma = std::sqrt(std::max(var, 1e-12));
  }
  Tensor adj(tensor::Shape{n, n});
  double inv_sigma2 = 1.0 / (sigma * sigma);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double d = distances.at({i, j});
      double w = std::exp(-d * d * inv_sigma2);
      if (w >= threshold) adj.at({i, j}) = static_cast<float>(w);
    }
  }
  return adj;
}

SensorGraph BuildSensorGraph(int64_t n, Rng& rng, int64_t num_clusters,
                             double kernel_threshold) {
  SensorGraph graph;
  graph.num_nodes = n;
  graph.coords = GenerateSensorLocations(n, rng, num_clusters);
  graph.distances = PairwiseDistances(graph.coords);
  graph.adjacency =
      GaussianKernelAdjacency(graph.distances, -1.0, kernel_threshold);
  return graph;
}

Tensor TransitionMatrix(const Tensor& adjacency) {
  PRISTI_CHECK_EQ(adjacency.ndim(), 2);
  int64_t n = adjacency.dim(0);
  PRISTI_CHECK_EQ(n, adjacency.dim(1));
  Tensor transition(adjacency.shape());
  for (int64_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (int64_t j = 0; j < n; ++j) row_sum += adjacency.at({i, j});
    if (row_sum <= 0.0) continue;  // isolated node: zero row
    float inv = static_cast<float>(1.0 / row_sum);
    for (int64_t j = 0; j < n; ++j) {
      transition.at({i, j}) = adjacency.at({i, j}) * inv;
    }
  }
  return transition;
}

std::vector<Tensor> BidirectionalTransitions(const Tensor& adjacency) {
  return {TransitionMatrix(adjacency),
          TransitionMatrix(tensor::TransposeLast2(adjacency))};
}

std::vector<double> NodeDegrees(const Tensor& adjacency) {
  int64_t n = adjacency.dim(0);
  std::vector<double> degrees(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      degrees[static_cast<size_t>(i)] += adjacency.at({i, j});
    }
  }
  return degrees;
}

int64_t HighestConnectivityNode(const Tensor& adjacency) {
  std::vector<double> degrees = NodeDegrees(adjacency);
  return static_cast<int64_t>(
      std::max_element(degrees.begin(), degrees.end()) - degrees.begin());
}

int64_t LowestConnectivityNode(const Tensor& adjacency) {
  std::vector<double> degrees = NodeDegrees(adjacency);
  return static_cast<int64_t>(
      std::min_element(degrees.begin(), degrees.end()) - degrees.begin());
}

}  // namespace pristi::graph
