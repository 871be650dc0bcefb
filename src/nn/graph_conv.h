#ifndef PRISTI_NN_GRAPH_CONV_H_
#define PRISTI_NN_GRAPH_CONV_H_

// Graph WaveNet-style diffusion graph convolution (the paper's MPNN
// component, Section III-B1: "We adopt the graph convolution module from
// Graph Wavenet, whose adjacency matrix includes a bidirectional
// distance-based matrix and an adaptively learnable matrix").
//
// Given supports {A_s} (typically the forward and backward transition
// matrices of the sensor graph) plus an optional learned adaptive adjacency
// softmax(relu(E1 E2^T)), the layer computes
//
//   Z = [X, A_1 X, A_1^2 X, ..., A_S^K X]  W + b
//
// i.e. K diffusion steps per support, concatenated on the channel axis and
// mixed by a 1x1 convolution.

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"

namespace pristi::nn {

class GraphConv : public Module {
 public:
  // `supports` are fixed (N, N) transition matrices, row-normalized by the
  // caller (see graph/adjacency.h). `adaptive_rank` > 0 adds the learned
  // adjacency with embeddings of that rank; requires `num_nodes`.
  GraphConv(int64_t d_in, int64_t d_out, std::vector<Tensor> supports,
            Rng& rng, int64_t diffusion_steps = 2, int64_t adaptive_rank = 0,
            int64_t num_nodes = 0);

  // x: (B, N, d_in) -> (B, N, d_out).
  Variable Forward(const Variable& x) const;

  // The adaptive adjacency currently implied by the node embeddings
  // (softmax(relu(E1 E2^T))); for inspection and tests.
  Variable AdaptiveAdjacency() const;

  bool has_adaptive() const { return adaptive_rank_ > 0; }

 private:
  int64_t d_in_;
  int64_t d_out_;
  int64_t diffusion_steps_;
  int64_t adaptive_rank_;
  std::vector<Variable> supports_;  // constants
  Variable e1_, e2_;                // adaptive embeddings (N, rank)
  Variable weight_;                 // ((1 + S*K) * d_in, d_out)
  Variable bias_;
};

}  // namespace pristi::nn

#endif  // PRISTI_NN_GRAPH_CONV_H_
