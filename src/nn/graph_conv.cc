#include "nn/graph_conv.h"

#include "common/check.h"

namespace pristi::nn {

namespace ag = ::pristi::autograd;

GraphConv::GraphConv(int64_t d_in, int64_t d_out,
                     std::vector<Tensor> supports, Rng& rng,
                     int64_t diffusion_steps, int64_t adaptive_rank,
                     int64_t num_nodes)
    : d_in_(d_in),
      d_out_(d_out),
      diffusion_steps_(diffusion_steps),
      adaptive_rank_(adaptive_rank) {
  PRISTI_CHECK_GT(diffusion_steps_, 0);
  for (Tensor& support : supports) {
    PRISTI_CHECK_EQ(support.ndim(), 2);
    PRISTI_CHECK_EQ(support.dim(0), support.dim(1));
    supports_.push_back(ag::Constant(std::move(support)));
  }
  if (adaptive_rank_ > 0) {
    PRISTI_CHECK_GT(num_nodes, 0) << "adaptive adjacency needs the node count";
    e1_ = AddParameter("e1",
                       NormalInit({num_nodes, adaptive_rank_}, 0.1f, rng));
    e2_ = AddParameter("e2",
                       NormalInit({num_nodes, adaptive_rank_}, 0.1f, rng));
  }
  int64_t num_supports =
      static_cast<int64_t>(supports_.size()) + (adaptive_rank_ > 0 ? 1 : 0);
  int64_t mixed_in = (1 + num_supports * diffusion_steps_) * d_in;
  weight_ = AddParameter(
      "weight", GlorotUniform({mixed_in, d_out}, mixed_in, d_out, rng));
  bias_ = AddParameter("bias", Tensor::Zeros({d_out}));
}

Variable GraphConv::AdaptiveAdjacency() const {
  PRISTI_CHECK(has_adaptive());
  Variable raw = ag::MatMulNT(e1_, e2_);
  return ag::SoftmaxLastDim(ag::Relu(raw));
}

Variable GraphConv::Forward(const Variable& x) const {
  PRISTI_CHECK_EQ(x.value().ndim(), 3);
  PRISTI_CHECK_EQ(x.value().dim(-1), d_in_);

  // Each feature is mixed into the output as soon as it exists, in concat
  // order [x, A_1 x, A_1^2 x, ...]; a diffusion step is dropped once the
  // next one has been computed from it.
  ag::ConcatMatMulLastDim mix(weight_, weight_.value().dim(0) / d_in_);
  mix.Append(x);

  // Fixed supports.
  for (size_t si = 0; si < supports_.size(); ++si) {
    PRISTI_CHECK_EQ(supports_[si].value().dim(0), x.value().dim(1))
        << "support size must match node axis";
    Variable diffused = x;
    for (int64_t step = 0; step < diffusion_steps_; ++step) {
      diffused = ag::MatMulNodeDim(supports_[si], diffused);
      mix.Append(diffused);
    }
  }
  // Adaptive adjacency (learned, dense).
  if (has_adaptive()) {
    PRISTI_CHECK_EQ(x.value().dim(1), e1_.value().dim(0))
        << "adaptive adjacency node count mismatch";
    Variable adaptive = AdaptiveAdjacency();
    Variable diffused = x;
    for (int64_t step = 0; step < diffusion_steps_; ++step) {
      diffused = ag::MatMulNodeDim(adaptive, diffused);
      mix.Append(diffused);
    }
  }
  return mix.Finish(bias_);
}

}  // namespace pristi::nn
