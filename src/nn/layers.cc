#include "nn/layers.h"

#include "common/check.h"

namespace pristi::nn {

namespace ag = ::pristi::autograd;

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features), has_bias_(bias) {
  PRISTI_CHECK_GT(in_features, 0);
  PRISTI_CHECK_GT(out_features, 0);
  weight_ = AddParameter(
      "weight", GlorotUniform({in_features, out_features}, in_features,
                              out_features, rng));
  if (has_bias_) {
    bias_ = AddParameter("bias", Tensor::Zeros({out_features}));
  }
}

Variable Linear::Forward(const Variable& x) const {
  PRISTI_CHECK_EQ(x.value().dim(-1), in_features_)
      << "Linear expected last dim " << in_features_;
  return has_bias_ ? ag::MatMulLastDimBias(x, weight_, bias_)
                   : ag::MatMulLastDim(x, weight_);
}

LayerNorm::LayerNorm(int64_t features, float eps) : eps_(eps) {
  PRISTI_CHECK_GT(features, 0);
  gamma_ = AddParameter("gamma", Tensor::Ones({features}));
  beta_ = AddParameter("beta", Tensor::Zeros({features}));
}

Variable LayerNorm::Forward(const Variable& x) const {
  return ag::LayerNormLastDim(x, gamma_, beta_, eps_);
}

Mlp::Mlp(int64_t in_features, int64_t hidden_features, int64_t out_features,
         Rng& rng)
    : fc1_(in_features, hidden_features, rng),
      fc2_(hidden_features, out_features, rng) {
  AddChild("fc1", &fc1_);
  AddChild("fc2", &fc2_);
}

Variable Mlp::Forward(const Variable& x) const {
  // fc1's output dies once ReLU has read it, before fc2 runs.
  Variable hidden = ag::Relu(fc1_.Forward(x));
  return fc2_.Forward(hidden);
}

}  // namespace pristi::nn
