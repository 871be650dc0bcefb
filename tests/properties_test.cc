// Property tests: invariants a component must satisfy for any input, checked
// on random instances rather than against pinned values.
//
// GraphConv (the paper's MPNN, Section III-B1) is message passing on a
// graph, so relabelling the nodes must only relabel its output, and its
// gradients must agree with finite differences.

#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "graph/adjacency.h"
#include "nn/graph_conv.h"

namespace pristi {
namespace {

using tensor::Tensor;

// A sensor graph whose thresholded kernel leaves many zero weights.
std::vector<Tensor> ClusteredSupports(int64_t n, uint64_t seed) {
  Rng rng(seed);
  graph::SensorGraph sensor_graph =
      graph::BuildSensorGraph(n, rng, /*num_clusters=*/n / 16,
                              /*kernel_threshold=*/0.5);
  return graph::BidirectionalTransitions(sensor_graph.adjacency);
}

// Rows of a (..., N, d) tensor reordered on the node axis: out[.., i, :] =
// x[.., perm[i], :].
Tensor PermuteNodes(const Tensor& x, const std::vector<int64_t>& perm) {
  int64_t n = x.dim(-2);
  int64_t d = x.dim(-1);
  int64_t outer = x.numel() / (n * d);
  Tensor out = Tensor::Zeros(x.shape());
  for (int64_t b = 0; b < outer; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < d; ++c) {
        out[(b * n + i) * d + c] = x[(b * n + perm[i]) * d + c];
      }
    }
  }
  return out;
}

// P A P^T for an (N, N) matrix: out[i, j] = a[perm[i], perm[j]].
Tensor PermuteSquare(const Tensor& a, const std::vector<int64_t>& perm) {
  int64_t n = a.dim(0);
  Tensor out = Tensor::Zeros(a.shape());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out[i * n + j] = a[perm[i] * n + perm[j]];
    }
  }
  return out;
}

TEST(GraphConvProperties, NodePermutationEquivariance) {
  const int64_t n = 48;
  const int64_t d_in = 4;
  const int64_t d_out = 5;
  std::vector<Tensor> supports = ClusteredSupports(n, 5);
  Rng perm_rng(17);
  std::vector<int64_t> perm = perm_rng.Permutation(n);
  std::vector<Tensor> permuted_supports;
  for (const Tensor& support : supports) {
    permuted_supports.push_back(PermuteSquare(support, perm));
  }

  // Same constructor seed -> identical weights; then relabel the node rows
  // of the adaptive embeddings, the only node-indexed parameters.
  Rng rng(11), permuted_rng(11);
  nn::GraphConv conv(d_in, d_out, supports, rng, /*diffusion_steps=*/2,
                     /*adaptive_rank=*/3, /*num_nodes=*/n);
  nn::GraphConv permuted_conv(d_in, d_out, permuted_supports, permuted_rng,
                              /*diffusion_steps=*/2, /*adaptive_rank=*/3,
                              /*num_nodes=*/n);
  ASSERT_TRUE(permuted_conv.has_adaptive());
  int permuted_embeddings = 0;
  for (auto& [name, param] : permuted_conv.NamedParameters()) {
    if (name == "e1" || name == "e2") {
      param.mutable_value() = PermuteNodes(param.value(), perm);
      ++permuted_embeddings;
    }
  }
  ASSERT_EQ(permuted_embeddings, 2);

  Rng data_rng(23);
  Tensor x = Tensor::Randn({3, n, d_in}, data_rng);
  Tensor y = conv.Forward(autograd::Constant(x)).value();
  Tensor permuted_y =
      permuted_conv.Forward(autograd::Constant(PermuteNodes(x, perm)))
          .value();
  Tensor expected = PermuteNodes(y, perm);
  ASSERT_EQ(permuted_y.shape(), expected.shape());
  for (int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_NEAR(permuted_y[i], expected[i], 1e-5f) << "element " << i;
  }
}

TEST(GraphConvProperties, GradCheck) {
  const int64_t n = 32;
  Rng rng(11);
  nn::GraphConv conv(3, 2, ClusteredSupports(n, 5), rng,
                     /*diffusion_steps=*/2, /*adaptive_rank=*/0,
                     /*num_nodes=*/n);
  auto fn = [&](std::vector<autograd::Variable>& inputs) {
    return autograd::SumAll(conv.Forward(inputs[0]));
  };
  Rng data_rng(23);
  auto result =
      autograd::CheckGradients(fn, {Tensor::Randn({2, n, 3}, data_rng)});
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace pristi
