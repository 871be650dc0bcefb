// Property tests: invariants a component must satisfy for any input, checked
// on random instances rather than against pinned values.
//
// GraphConv (the paper's MPNN, Section III-B1) is message passing on a
// graph, so relabelling the nodes must only relabel its output, and its
// gradients must agree with finite differences. The same holds for the
// PriSTI blocks built on it: the conditional feature module (Eq. 5) and a
// noise estimation layer (Eq. 6-9) attend over nodes and pass messages, and
// nothing else in them depends on a node's index.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "graph/adjacency.h"
#include "nn/graph_conv.h"
#include "pristi/pristi_model.h"

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

// A (B, N, ...) tensor relabelled on the node axis 1: out[b, i, ...] =
// x[b, perm[i], ...].
Tensor PermuteNodeAxis(const Tensor& x, const std::vector<int64_t>& perm) {
  const int64_t batch = x.dim(0), n = x.dim(1);
  const int64_t inner = x.numel() / (batch * n);
  Tensor out = Tensor::Zeros(x.shape());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < inner; ++c) {
        out[(b * n + i) * inner + c] = x[(b * n + perm[i]) * inner + c];
      }
    }
  }
  return out;
}

// Columns of a (rows, N) matrix relabelled: out[r, i] = a[r, perm[i]].
Tensor PermuteColumns(const Tensor& a, const std::vector<int64_t>& perm) {
  const int64_t rows = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Zeros(a.shape());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t i = 0; i < n; ++i) out[r * n + i] = a[r * n + perm[i]];
  }
  return out;
}

bool EndsWith(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

// Relabels every node-indexed parameter of `module`: the rows of the
// adaptive-adjacency embeddings and the node columns of the virtual-node
// projections. Returns how many it relabelled.
int PermuteNodeParameters(nn::Module& module,
                          const std::vector<int64_t>& perm) {
  int relabelled = 0;
  for (auto& [name, param] : module.NamedParameters()) {
    if (EndsWith(name, ".e1") || EndsWith(name, ".e2")) {
      param.mutable_value() = PermuteNodes(param.value(), perm);
      ++relabelled;
    } else if (EndsWith(name, ".pk") || EndsWith(name, ".pv")) {
      param.mutable_value() = PermuteColumns(param.value(), perm);
      ++relabelled;
    }
  }
  return relabelled;
}

void ExpectNear(const Tensor& got, const Tensor& want,
                const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-5f) << what << " element " << i;
  }
}

// A module and its node-relabelled twin: the same constructor seed gives
// identical weights, then the supports, adaptive embeddings and virtual-node
// projection columns are relabelled.
struct PermutedPair {
  core::PristiConfig config;
  std::vector<int64_t> perm;
  std::vector<Tensor> supports;
  std::vector<Tensor> permuted_supports;
};

PermutedPair MakePermutedPair() {
  PermutedPair pair;
  pair.config.num_nodes = 48;
  pair.config.window_len = 5;
  pair.config.channels = 8;
  pair.config.heads = 2;
  pair.config.virtual_nodes = 6;
  pair.config.diffusion_emb_dim = 8;
  pair.config.adaptive_rank = 3;
  pair.supports = ClusteredSupports(pair.config.num_nodes, 5);
  Rng perm_rng(19);
  pair.perm = perm_rng.Permutation(pair.config.num_nodes);
  for (const Tensor& support : pair.supports) {
    pair.permuted_supports.push_back(PermuteSquare(support, pair.perm));
  }
  return pair;
}

TEST(PristiProperties, ConditionalFeatureModuleNodePermutationEquivariance) {
  PermutedPair pair = MakePermutedPair();
  Rng rng(29), permuted_rng(29);
  core::ConditionalFeatureModule module(pair.config, pair.supports, rng);
  core::ConditionalFeatureModule permuted(pair.config,
                                          pair.permuted_supports,
                                          permuted_rng);
  ASSERT_EQ(PermuteNodeParameters(permuted, pair.perm), 4);

  Rng data_rng(31);
  const core::PristiConfig& c = pair.config;
  Tensor h =
      Tensor::Randn({2, c.num_nodes, c.window_len, c.channels}, data_rng);
  Tensor out = module.Forward(autograd::Constant(h)).value();
  Tensor permuted_out =
      permuted.Forward(autograd::Constant(PermuteNodeAxis(h, pair.perm)))
          .value();
  ExpectNear(permuted_out, PermuteNodeAxis(out, pair.perm), "H^pri");
}

TEST(PristiProperties, NoiseEstimationLayerNodePermutationEquivariance) {
  PermutedPair pair = MakePermutedPair();
  Rng rng(37), permuted_rng(37);
  core::NoiseEstimationLayer layer(pair.config, pair.supports, rng);
  core::NoiseEstimationLayer permuted(pair.config, pair.permuted_supports,
                                      permuted_rng);
  ASSERT_EQ(PermuteNodeParameters(permuted, pair.perm), 4);

  Rng data_rng(41);
  const core::PristiConfig& c = pair.config;
  const tensor::Shape shape = {2, c.num_nodes, c.window_len, c.channels};
  Tensor h_in = Tensor::Randn(shape, data_rng);
  Tensor h_pri = Tensor::Randn(shape, data_rng);
  autograd::Variable diff_emb =
      autograd::Constant(Tensor::Randn({c.diffusion_emb_dim}, data_rng));
  core::NoiseEstimationLayer::Output out = layer.Forward(
      autograd::Constant(h_in), autograd::Constant(h_pri), diff_emb);
  core::NoiseEstimationLayer::Output permuted_out = permuted.Forward(
      autograd::Constant(PermuteNodeAxis(h_in, pair.perm)),
      autograd::Constant(PermuteNodeAxis(h_pri, pair.perm)), diff_emb);
  ExpectNear(permuted_out.residual.value(),
             PermuteNodeAxis(out.residual.value(), pair.perm), "residual");
  ExpectNear(permuted_out.skip.value(),
             PermuteNodeAxis(out.skip.value(), pair.perm), "skip");
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
