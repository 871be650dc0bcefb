#include "nn/attention.h"

#include <algorithm>
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

namespace {

// x (blocks of rows, ...) with each of its `blocks` equal row blocks
// repeated `group` times, for the reference chain's grouped calls.
Variable RepeatBlocks(const Variable& x, int64_t blocks, int64_t group) {
  PRISTI_CHECK(!ag::GradModeEnabled())
      << "grouped attention is inference-only";
  const tensor::Tensor& value = x.value();
  tensor::Shape shape = value.shape();
  const int64_t block = value.numel() / blocks;
  shape[0] *= group;
  tensor::Tensor out(shape);
  for (int64_t b = 0; b < blocks; ++b) {
    for (int64_t g = 0; g < group; ++g) {
      std::copy(value.data() + b * block, value.data() + (b + 1) * block,
                out.data() + (b * group + g) * block);
    }
  }
  return ag::Constant(out);
}

}  // namespace

Variable MultiHeadAttention::Forward(const Variable& qk_source,
                                     const Variable& v_source,
                                     int64_t block_rows) const {
  const tensor::Tensor& qk_value = qk_source.value();
  const tensor::Tensor& v_value = v_source.value();
  PRISTI_CHECK_EQ(qk_value.ndim(), 3);
  PRISTI_CHECK_EQ(v_value.ndim(), 3);
  PRISTI_CHECK_EQ(qk_value.dim(-1), d_model_);
  PRISTI_CHECK_EQ(v_value.dim(-1), d_model_);
  PRISTI_CHECK_EQ(qk_value.dim(1), v_value.dim(1));
  PRISTI_CHECK_GT(block_rows, 0);
  PRISTI_CHECK_EQ(qk_value.dim(0) % block_rows, 0);
  PRISTI_CHECK_EQ(v_value.dim(0) % qk_value.dim(0), 0)
      << "v rows must be a multiple of the q/k rows";
  const int64_t group = v_value.dim(0) / qk_value.dim(0);

  // Each projection lives only until the attention has read it: under
  // NoGradGuard the peak is the three projections plus the context, then
  // the context plus the output. Q and K (and P_K·H) are projected once per
  // q/k row, however many v rows share it.
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
    // (tensor/kernels/attention.h). A grouped call forms each q/k row's
    // weights once for its `group` v rows.
    context = ag::FusedAttention(std::exchange(q, Variable()),
                                 std::exchange(k, Variable()),
                                 std::exchange(v, Variable()), num_heads_,
                                 scale, group, block_rows);
  } else {
    // Reference chain, reached only through the SetFusedAttentionEnabled
    // test seam: the heads are split into (B, h, S, dh) copies, Q·Kᵀ runs
    // on the NT kernel with the scale as an in-place epilogue — bitwise the
    // pre-fusion MulScalar pass — and the heads are merged back. A grouped
    // call repeats each q/k block for the v blocks that share it.
    if (group > 1) {
      const int64_t blocks = qk_value.dim(0) / block_rows;
      q = RepeatBlocks(q, blocks, group);
      k = RepeatBlocks(k, blocks, group);
    }
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
