#ifndef PRISTI_TENSOR_KERNELS_ATTENTION_H_
#define PRISTI_TENSOR_KERNELS_ATTENTION_H_

// Streaming fused scaled-dot-product attention (online softmax).
//
// The classic chain materializes the full (batch, s_q, s_k) score tensor
// three times over (Q·Kᵀ write, softmax read+write, context-GEMM read). At
// paper-full spatial shapes (325 nodes, 100 stacked samples) that score
// traffic dominates reverse-step memory bandwidth. The fused kernel tiles
// Q rows against kColTile-wide packed K column panels, maintains a running
// row max `m` and normalizer `l` (online softmax: when a kv block's max
// exceeds `m`, the partial normalizer and context accumulator are rescaled
// once by exp(m_old - m_new)), and accumulates the context output directly
// — no score tensor ever exists. The softmax weights use an in-kernel
// polynomial exp (Cephes-style 2^n·poly(r), < 1e-7 relative error) rather
// than libm. On AVX2 hosts head_dim 4 and 8 (the bench and paper configs)
// run a row-group kernel: each of the 8 float lanes is one query row of the
// same item, and the eight rows share that item's K panels and V. It
// stays bit-identical to the scalar row kernel because every lane repeats
// the scalar chains in the same order — scores in increasing k with the
// multiply and the add rounded separately, the block max as
// `s > bm ? s : bm`, the rescale applied only in lanes whose max advanced
// (the others multiply by an exact 1.0), the same polynomial exp, l adds in
// double and o accumulation in column order — and the final o/l and
// m + log(l) are computed per lane in scalar code. The per-row logsumexp is
// saved so the backward pass recomputes score blocks from the same packed
// panels instead of storing softmax weights.
//
// The backward's AVX2 kernel, for the same head_dims, puts one kv COLUMN in
// each lane instead. dV[j] and dK[j] sum over rows i in increasing i, so
// with a column per lane those sums — and the scores, p = exp(s - lse), the
// double dp = gO[i]·V[j] and ds — are per-lane chains in the scalar order;
// with a row per lane they would have to cross lanes in order. dQ[i] sums
// over j in increasing j in one __m256d per 4 head dims, the same double
// chain as the scalar kernel. V is packed into K's panel layout and dV/dK
// are stored back row-major: data movement only. So it is bit-identical to
// the scalar item kernel, which FusedAttentionBackwardScalar exposes.
//
// Determinism contract (weaker than the GEMM layer's, by necessity):
//   - fused vs reference is a TOLERANCE equivalence (max-abs-error <= 1e-5
//     on forward at model shapes), NOT bitwise: online softmax reorders the
//     softmax reduction and uses the polynomial exp.
//   - the fused path ITSELF is bit-identical across thread counts, parallel
//     partitions, SIMD dispatch and runs: every output row is one serial
//     sweep over its kv blocks (scores per block are independent per-column
//     chains in strictly increasing k; the block max, the single rescale,
//     the exp lanes, and the l/o accumulations run in fixed increasing
//     column order), each row is owned by exactly one ParallelFor worker,
//     the backward is batch-item-serial the same way, and the AVX2
//     row-group forward and column-lane backward reproduce the scalar
//     chains lane for lane. kColTile is an algorithmic constant of the
//     kernel, not a tuning knob — the recorded fused goldens pin its value.
//   - the reference chain (BatchedMatMulNT -> SoftmaxLastDim ->
//     BatchedMatMul, which nn/attention.cc runs only when a test turns the
//     fused kernel off through SetFusedAttentionEnabled) is
//     bitwise-unchanged from before this kernel existed. Every recorded
//     golden, the training-loss golden included, runs the fused kernel.
//
// The 1/sqrt(head_dim) scale is folded into the Q-row load (one mul per
// q element instead of a full-tensor pass over the scores).
//
// K panels reuse the GEMM layer's pack cache: the forward gathers K of each
// (batch row, head) item into kColTile-wide k-major column panels (the
// PackBPanel format for a kTransposed operand) and inserts the buffer keyed
// on K's storage identity and head stride, so the backward's block
// recomputation — running while the autograd graph still pins K's storage
// version — hits instead of repacking. V is read in place, one dh-wide row
// segment at a time, and needs no packing.

#include <cstdint>

#include "tensor/tensor.h"

namespace pristi::tensor::kernels {

// True unless a test turned the fused kernel off: MultiHeadAttention then
// runs the materialized reference chain instead.
bool FusedAttentionEnabled();

// Routes MultiHeadAttention through the fused kernel (true, the default) or
// the reference chain (false); returns the previous value. The in-process
// test seam for running a whole model through the reference chain
// (fused-vs-reference parity); nothing else calls it.
bool SetFusedAttentionEnabled(bool enabled);

// Layout contract. Every entry point below takes `heads` and reads its
// operands in the (batch, s, heads·dh) row-major layout a multi-head
// layer's projections already have: attention item (b, h) — batch row b,
// head h — is the dh-wide column block starting at h·dh of each of b's s
// rows, and consecutive rows of one item lie heads·dh floats apart. So
// q/out/grad_out/dq are (batch, s_q, heads·dh) and k/v/dk/dv are
// (batch, s_k, heads·dh); no operand is copied into a (batch, heads, s, dh)
// head-split layout. The per-row logsumexp `lse` is (batch, heads, s_q),
// item-major. heads == 1 is the plain contiguous (batch, s, dh) layout,
// with batch the product of all leading dims. Each item runs the same
// chains whatever its stride, so a strided call is bitwise the contiguous
// call on head-split copies of the operands.

// Forward: out = softmax(scale * Q·Kᵀ) · V per item. `lse` receives the
// per-row logsumexp of the SCALED scores, the saved state the backward
// needs; it may be null when no backward follows. `cache_k`, when
// non-null, must be the tensor whose data() backs `k`; its storage identity
// keys the packed K panels in the pack cache.
void FusedAttentionForward(int64_t batch, int64_t heads, int64_t s_q,
                           int64_t s_k, int64_t dh, float scale,
                           const float* q, const float* k, const float* v,
                           float* out, float* lse,
                           const Tensor* cache_k = nullptr);

// Test-only oracle, like ReferenceGemm for the GEMM layer: the same forward
// computed one row at a time by the scalar row kernel — the path head_dims
// other than 4 and 8, and hosts without AVX2, always take. On an AVX2 host
// nothing else reaches it at head_dim 4 or 8, so tests compare the
// dispatched forward against it bitwise. Never packs through the pack cache.
void FusedAttentionForwardScalar(int64_t batch, int64_t heads, int64_t s_q,
                                 int64_t s_k, int64_t dh, float scale,
                                 const float* q, const float* k,
                                 const float* v, float* out, float* lse);

// Grouped inference forward: `group` value streams share each Q/K row's
// softmax weights. q and k hold outer·inner batch rows, v and out hold
// outer·group·inner (same `heads` layout), and v/out batch row
// (o·group + g)·inner + i attends with the weights of q/k batch row
// o·inner + i, for g = 0..group-1. PriSTI's reverse run needs exactly this:
// its S chains of one window share the conditional prior the weights come
// from (o = window, g = chain, i = node or step). Each Q/K row's scores,
// block maxima, rescale factors, polynomial-exp weights and double
// normalizer are formed once, and every chain's o runs the ungrouped
// accumulation in the ungrouped order, so out is BIT-IDENTICAL to
// FusedAttentionForward on q and k with each batch row repeated for its
// chains. No logsumexp is kept: nothing backpropagates through a grouped
// call. group == 1 and inner == 1 is FusedAttentionForward without lse.
void FusedAttentionForwardGrouped(int64_t outer, int64_t group,
                                  int64_t inner, int64_t heads, int64_t s_q,
                                  int64_t s_k, int64_t dh, float scale,
                                  const float* q, const float* k,
                                  const float* v, float* out,
                                  const Tensor* cache_k = nullptr);

// Test-only oracle of the grouped forward: the scalar row kernel with all of
// a row's chains, as FusedAttentionForwardScalar is for the ungrouped call.
void FusedAttentionForwardGroupedScalar(int64_t outer, int64_t group,
                                        int64_t inner, int64_t heads,
                                        int64_t s_q, int64_t s_k, int64_t dh,
                                        float scale, const float* q,
                                        const float* k, const float* v,
                                        float* out);

// Backward by block recomputation: given the forward's saved `out` and
// `lse`, recomputes each score block from the packed K panels (pack-cache
// hit when `cache_k` identifies unchanged storage), reforms the softmax row
// p_j = exp(s_j - lse_i), and accumulates, per item,
//   dV[j]  += p_j * gO[i]
//   ds_j    = p_j * (gO[i]·V[j] - D_i),   D_i = gO[i]·out[i]
//   dK[j]  += ds_j * (scale * Q[i])
//   dQ[i]  += scale * sum_j ds_j * K[j]
// dq/dk/dv must be distinct from every input and are OVERWRITTEN.
// Item-parallel, serial within an item.
void FusedAttentionBackward(int64_t batch, int64_t heads, int64_t s_q,
                            int64_t s_k, int64_t dh, float scale,
                            const float* q, const float* k, const float* v,
                            const float* out, const float* lse,
                            const float* grad_out, float* dq, float* dk,
                            float* dv, const Tensor* cache_k = nullptr);

// Test-only oracle for the backward, the counterpart of
// FusedAttentionForwardScalar: the scalar item kernel, one (row, column)
// pair at a time. Tests compare the dispatched backward against it bitwise
// at head_dim 4 and 8. Never packs through the pack cache.
void FusedAttentionBackwardScalar(int64_t batch, int64_t heads, int64_t s_q,
                                  int64_t s_k, int64_t dh, float scale,
                                  const float* q, const float* k,
                                  const float* v, const float* out,
                                  const float* lse, const float* grad_out,
                                  float* dq, float* dk, float* dv);

}  // namespace pristi::tensor::kernels

#endif  // PRISTI_TENSOR_KERNELS_ATTENTION_H_
