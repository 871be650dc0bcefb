#ifndef PRISTI_NN_LAYERS_H_
#define PRISTI_NN_LAYERS_H_

// Core feed-forward layers. All layers operate on the LAST axis of their
// input, so any leading batch structure (B), (B,N), (B,N,L) works unchanged.

#include <string>

#include "autograd/ops.h"
#include "nn/module.h"

namespace pristi::nn {

// Affine map on the last axis: y = x W + b, W of shape (in, out), the bias
// added into the product in place (autograd::MatMulLastDimBias).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);

  Variable Forward(const Variable& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Variable weight_;
  Variable bias_;
  bool has_bias_;
};

// The paper's Conv(.) is a 1x1 convolution over the channel axis, which for
// channel-last layout is exactly a Linear on the last axis. Kept as its own
// type so model code reads like the paper.
using Conv1x1 = Linear;

// LayerNorm over the last axis with learnable affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t features, float eps = 1e-5f);

  Variable Forward(const Variable& x) const;

 private:
  Variable gamma_;
  Variable beta_;
  float eps_;
};

// Two-layer perceptron with ReLU: Linear -> ReLU -> Linear.
class Mlp : public Module {
 public:
  Mlp(int64_t in_features, int64_t hidden_features, int64_t out_features,
      Rng& rng);

  Variable Forward(const Variable& x) const;

 private:
  Linear fc1_;
  Linear fc2_;
};

}  // namespace pristi::nn

#endif  // PRISTI_NN_LAYERS_H_
