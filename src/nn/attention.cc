#include "nn/attention.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "tensor/kernels/attention.h"

namespace pristi::nn {

namespace ag = ::pristi::autograd;
namespace kernels = ::pristi::tensor::kernels;

Status ValidateAttentionHeads(int64_t d_model, int64_t num_heads) {
  if (num_heads < 1 || d_model % num_heads != 0) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "heads=" + std::to_string(num_heads) +
                             " must divide channels=" +
                             std::to_string(d_model));
  }
  return Status::Ok();
}

MultiHeadAttention::MultiHeadAttention(int64_t d_model, int64_t num_heads,
                                       Rng& rng, int64_t virtual_nodes,
                                       int64_t seq_len)
    : d_model_(d_model),
      num_heads_(num_heads),
      head_dim_(d_model / num_heads),
      virtual_nodes_(virtual_nodes) {
  PRISTI_CHECK_GT(num_heads, 0);
  PRISTI_CHECK_EQ(d_model % num_heads, 0) << "num_heads must divide d_model";
  wq_ = AddParameter("wq",
                     GlorotUniform({d_model, d_model}, d_model, d_model, rng));
  wk_ = AddParameter("wk",
                     GlorotUniform({d_model, d_model}, d_model, d_model, rng));
  wv_ = AddParameter("wv",
                     GlorotUniform({d_model, d_model}, d_model, d_model, rng));
  wo_ = AddParameter("wo",
                     GlorotUniform({d_model, d_model}, d_model, d_model, rng));
  if (virtual_nodes_ > 0) {
    PRISTI_CHECK_GT(seq_len, 0)
        << "virtual-node attention needs a fixed sequence length";
    PRISTI_CHECK_LT(virtual_nodes_, seq_len)
        << "virtual nodes should compress the sequence";
    pk_ = AddParameter(
        "pk", GlorotUniform({virtual_nodes_, seq_len}, seq_len, virtual_nodes_,
                            rng));
    pv_ = AddParameter(
        "pv", GlorotUniform({virtual_nodes_, seq_len}, seq_len, virtual_nodes_,
                            rng));
  }
}

Variable MultiHeadAttention::SplitHeads(const Variable& x) const {
  int64_t b = x.value().dim(0);
  int64_t s = x.value().dim(1);
  Variable reshaped = ag::Reshape(x, {b, s, num_heads_, head_dim_});
  return ag::Permute(reshaped, {0, 2, 1, 3});
}

Variable MultiHeadAttention::MergeHeads(const Variable& x) const {
  int64_t b = x.value().dim(0);
  int64_t s = x.value().dim(2);
  Variable permuted = ag::Permute(x, {0, 2, 1, 3});
  return ag::Reshape(permuted, {b, s, d_model_});
}

Variable MultiHeadAttention::Forward(const Variable& qk_source,
                                     const Variable& v_source) const {
  PRISTI_CHECK_EQ(qk_source.value().ndim(), 3);
  PRISTI_CHECK_EQ(v_source.value().ndim(), 3);
  PRISTI_CHECK_EQ(qk_source.value().dim(-1), d_model_);
  PRISTI_CHECK_EQ(v_source.value().dim(-1), d_model_);
  PRISTI_CHECK_EQ(qk_source.value().dim(0), v_source.value().dim(0));
  PRISTI_CHECK_EQ(qk_source.value().dim(1), v_source.value().dim(1));

  // Each projection lives only until the attention has read it: under
  // NoGradGuard the peak is the three projections plus the context, then
  // the context plus the output.
  Variable q = ag::MatMulLastDim(qk_source, wq_);
  Variable k, v;
  {
    Variable key_input = qk_source;
    Variable value_input = v_source;
    if (virtual_nodes_ > 0) {
      // Eq. 9: compress keys/values to k virtual positions before
      // projection.
      key_input = ag::MatMulNodeDim(pk_, qk_source);
      value_input = ag::MatMulNodeDim(pv_, v_source);
    }
    k = ag::MatMulLastDim(key_input, wk_);
    v = ag::MatMulLastDim(value_input, wv_);
  }

  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Variable context;  // (B, S, d)
  if (kernels::FusedAttentionEnabled()) {
    // Streaming fused kernel: each head is read from and written to its
    // d/h columns of the (B, S, d) projections in place, the (B, h, S, S_k)
    // scores never materialize, and the scale is folded into the Q-load.
    // Matches the reference chain to 1e-5, not bitwise
    // (tensor/kernels/attention.h).
    context = ag::FusedAttention(std::exchange(q, Variable()),
                                 std::exchange(k, Variable()),
                                 std::exchange(v, Variable()), num_heads_,
                                 scale);
  } else {
    // Reference chain, reached only through the SetFusedAttentionEnabled
    // test seam: the heads are split into (B, h, S, dh) copies, Q·Kᵀ runs
    // on the NT kernel with the scale as an in-place epilogue — bitwise the
    // pre-fusion MulScalar pass — and the heads are merged back.
    Variable qh = SplitHeads(q);
    Variable kh = SplitHeads(k);
    Variable vh = SplitHeads(v);
    Variable weights =
        ag::SoftmaxLastDim(ag::BatchedMatMulNTScaled(qh, kh, scale));
    context = MergeHeads(ag::BatchedMatMul(weights, vh));
  }
  return ag::MatMulLastDim(context, wo_);
}

}  // namespace pristi::nn
