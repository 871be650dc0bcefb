#ifndef PRISTI_GRAPH_ADJACENCY_H_
#define PRISTI_GRAPH_ADJACENCY_H_

// Sensor-graph construction: geographic coordinates, thresholded Gaussian
// kernel adjacency (paper Section IV-A: "We build the adjacency matrix for
// the three datasets using thresholded Gaussian kernel [Shuman et al.]"),
// and the row-normalized transition matrices consumed by GraphConv.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace pristi::graph {

using tensor::Tensor;

// A static sensor network: positions, pairwise distances, and the weighted
// adjacency derived from them. Matches the paper's static-graph setting.
struct SensorGraph {
  int64_t num_nodes = 0;
  Tensor coords;     // (N, 2) planar positions
  Tensor distances;  // (N, N) Euclidean distances
  Tensor adjacency;  // (N, N) thresholded Gaussian kernel weights, zero diag
};

// Scatters `n` sensors as a handful of spatial clusters (sensor networks are
// deployed along corridors/urban clusters, which is what gives geographic
// proximity its predictive value). `cluster_spread` controls how tight the
// clusters are; smaller values plant stronger spatial correlation.
Tensor GenerateSensorLocations(int64_t n, Rng& rng, int64_t num_clusters = 4,
                               double cluster_spread = 0.08);

// (N, N) Euclidean distance matrix from (N, 2) coordinates.
Tensor PairwiseDistances(const Tensor& coords);

// Thresholded Gaussian kernel: w_ij = exp(-d_ij^2 / sigma^2) when that
// exceeds `threshold`, else 0; diagonal forced to 0. `sigma` defaults to the
// standard deviation of the distance entries (the convention from the DCRNN
// line of work) when passed <= 0.
Tensor GaussianKernelAdjacency(const Tensor& distances, double sigma = -1.0,
                               double threshold = 0.1);

// Builds the full sensor graph for `n` nodes. `num_clusters` is forwarded
// to GenerateSensorLocations and `kernel_threshold` to
// GaussianKernelAdjacency. Because the kernel's sigma adapts to the
// distance distribution, cluster count alone barely moves the edge density;
// raising the threshold toward exp(-1) ~ 0.37 is what actually prunes
// cross-cluster pairs. The large-graph presets combine many clusters with a
// high threshold to keep adjacency nnz ~ O(n).
SensorGraph BuildSensorGraph(int64_t n, Rng& rng, int64_t num_clusters = 4,
                             double kernel_threshold = 0.1);

// Row-normalized transition matrix D^-1 A (rows summing to 1 where a node
// has any neighbour). The "bidirectional" supports of Graph WaveNet are
// {Transition(A), Transition(A^T)}.
Tensor TransitionMatrix(const Tensor& adjacency);
std::vector<Tensor> BidirectionalTransitions(const Tensor& adjacency);

// Weighted degree (row sum of adjacency) per node.
std::vector<double> NodeDegrees(const Tensor& adjacency);
// Index of the node with the highest / lowest weighted degree — the paper's
// "highest and lowest connectivity" stations for the sensor-failure study.
int64_t HighestConnectivityNode(const Tensor& adjacency);
int64_t LowestConnectivityNode(const Tensor& adjacency);

}  // namespace pristi::graph

#endif  // PRISTI_GRAPH_ADJACENCY_H_
