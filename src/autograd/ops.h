#ifndef PRISTI_AUTOGRAD_OPS_H_
#define PRISTI_AUTOGRAD_OPS_H_

// Differentiable operators over `Variable`.
//
// Every function builds the forward value eagerly with the kernels in
// tensor/tensor.h and registers a backward closure on the tape. If no input
// requires a gradient the graph edge is pruned, so constants (conditional
// information, masks) cost nothing at backward time.

#include <vector>

#include "autograd/variable.h"

namespace pristi::autograd {

// ---- Elementwise binary (NumPy broadcasting) ----------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

// ---- Scalar / unary -------------------------------------------------------
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);
Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Square(const Variable& a);
Variable Relu(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
// Clamp to [lo, hi]; gradient is passed through inside the range and zero
// outside (subgradient convention).
Variable Clamp(const Variable& a, float lo, float hi);
// Elementwise select with a constant condition mask: cond ? a : b.
Variable Where(const Tensor& cond, const Variable& a, const Variable& b);
// DiffWave-style gate over an even last axis d: tanh(x[..., :d/2]) *
// sigmoid(x[..., d/2:]), as one op. Forward and backward are bitwise the
// SliceAxis -> Tanh / Sigmoid -> Mul chain (the backward repeats its
// expressions, the slices' `0 +` scatter included); under NoGradGuard only
// the (..., d/2) output is allocated.
Variable GatedActivation(const Variable& x);

// ---- Matrix products ------------------------------------------------------
// The NT/TN variants read the transposed operand in place (tiled kernel
// layer, tensor/kernels/) — use them instead of composing with
// TransposeLast2, which would materialize a copy per call.
//
// (m,k) x (k,n).
Variable MatMul(const Variable& a, const Variable& b);
// (m,k) x (n,k)ᵀ — e.g. similarity scores against a row-major codebook.
Variable MatMulNT(const Variable& a, const Variable& b);
// (k,m)ᵀ x (k,n).
Variable MatMulTN(const Variable& a, const Variable& b);
// (..., m, k) x (..., k, n) with matching leading dims.
Variable BatchedMatMul(const Variable& a, const Variable& b);
// (..., m, k) x (..., n, k)ᵀ — e.g. attention scores Q·Kᵀ.
Variable BatchedMatMulNT(const Variable& a, const Variable& b);
// (..., k, m)ᵀ x (..., k, n).
Variable BatchedMatMulTN(const Variable& a, const Variable& b);
// scale * ((..., m, k) x (..., n, k)ᵀ) with the scale applied as an in-place
// epilogue on the product — bitwise the old MulScalar(BatchedMatMulNT(...))
// chain (same per-element rounding forward and backward) without the extra
// tensor allocation and tape node. The reference-path half of the attention
// scale fold; the fused kernel folds the scale into its Q-load instead.
Variable BatchedMatMulNTScaled(const Variable& a, const Variable& b,
                               float scale);
// Streaming fused multi-head attention over q(..., s_q, h·dh) and
// k/v(..., s_k, h·dh) with matching leading dims: head i of the result,
// columns [i·dh, (i+1)·dh), is softmax(scale * q_i·k_iᵀ)·v_i for the same
// columns of q, k and v. The heads are read and written in place at their
// row stride (tensor/kernels/attention.h), so neither a head-split copy of
// the inputs nor the (..., h, s_q, s_k) scores ever exist, and the result
// needs no merge. Saves the per-row logsumexp so the backward recomputes
// score blocks instead of storing softmax weights. Bitwise the same op on
// head-split copies; matches the reference chain to 1e-5 (online softmax
// reorders the reduction — NOT bitwise); bit-identical across thread counts
// and runs.
Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, int64_t num_heads, float scale);
// Shared weight on the last axis: (..., k_in) x (k_in, k_out).
Variable MatMulLastDim(const Variable& x, const Variable& w);
// MatMulLastDim(x, w) + b for a (k_out) bias, added into the fresh product
// in place: bitwise Add(MatMulLastDim(x, w), b), forward and backward, with
// one output block and one tape node.
Variable MatMulLastDimBias(const Variable& x, const Variable& w,
                           const Variable& b);
// Shared matrix on the second-to-last ("node") axis:
// (rows_out, rows_in) x (..., rows_in, d).
Variable MatMulNodeDim(const Variable& p, const Variable& x);

// MatMulLastDim(Concat(parts, -1), w) built one part at a time: each
// Append() multiplies its (..., d_in) part into the output against that
// part's d_in-row slice of w (a zero-copy view), so the concatenation is
// never materialized. Forward and backward are bitwise the two-op chain
// (the GEMM continues the chain the output already holds, tensor/kernels/).
// Under NoGradGuard a part is not kept once it has been mixed, so the
// caller's buffer can be freed right after Append(); with the tape on, the
// parts become the node's parents in append order, the weight last.
class ConcatMatMulLastDim {
 public:
  // w: (num_parts * d_in, d_out).
  ConcatMatMulLastDim(const Variable& w, int64_t num_parts);

  // Mixes the next part in; every part has the same leading dims.
  void Append(const Variable& part);

  // The (..., d_out) product plus the (d_out) `bias`, added in place once
  // all num_parts parts are appended: bitwise Add(<product>, bias).
  Variable Finish(const Variable& bias);

 private:
  Variable w_;
  int64_t num_parts_;
  int64_t d_in_;
  bool record_;  // the tape was on at construction: keep the parts
  int64_t appended_ = 0;
  std::vector<Variable> parts_;
  Tensor out_;
};

// ---- Softmax / normalization ---------------------------------------------
Variable SoftmaxLastDim(const Variable& a);
// LayerNorm over the last axis with learnable affine (gamma, beta of shape
// [d]). `eps` stabilizes the variance.
Variable LayerNormLastDim(const Variable& x, const Variable& gamma,
                          const Variable& beta, float eps = 1e-5f);

// ---- Shape ------------------------------------------------------------------
Variable Reshape(const Variable& a, Shape new_shape);
Variable Permute(const Variable& a, const std::vector<int64_t>& perm);
Variable TransposeLast2(const Variable& a);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable SliceAxis(const Variable& a, int64_t axis, int64_t start,
                   int64_t length);

// ---- Reductions -------------------------------------------------------------
// Full reductions produce scalar-shaped variables (ndim 0).
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);
Variable SumAxisKeepdim(const Variable& a, int64_t axis);
Variable MeanAxisKeepdim(const Variable& a, int64_t axis);

// ---- Custom ops --------------------------------------------------------------
// Builds a differentiable node from a precomputed forward value and a
// backward closure (which must AccumulateGrad into the inputs' nodes).
// Escape hatch for ops with specialized kernels (e.g. reusing a
// precomputed layout permute) that do not warrant a dedicated operator here.
Variable MakeCustomOp(const Tensor& value, const std::vector<Variable>& inputs,
                      std::function<void(const Tensor& grad_out)> backward);

// ---- Composite losses -------------------------------------------------------
// sum(mask * (pred - target)^2) / max(sum(mask), 1). `target` and `mask` are
// treated as constants. This is the epsilon-prediction objective (Eq. 4)
// restricted to the imputation target.
Variable MaskedMse(const Variable& pred, const Tensor& target,
                   const Tensor& mask);

}  // namespace pristi::autograd

#endif  // PRISTI_AUTOGRAD_OPS_H_
