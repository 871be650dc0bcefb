#ifndef PRISTI_NN_ATTENTION_H_
#define PRISTI_NN_ATTENTION_H_

// Dot-product multi-head attention with two PriSTI-specific twists:
//
//  1. Decoupled sources (paper Eq. 7-8): the attention WEIGHTS are computed
//     from one stream (`qk_source`, the conditional prior H^pri) while the
//     VALUES come from another (`v_source`, the noisy stream H^in / H^tem).
//     Pass the same variable for both to recover standard self-attention.
//
//  2. Optional virtual-node downsampling (paper Eq. 9): keys and values are
//     projected from N sequence positions to k < N learned virtual positions,
//     reducing spatial attention from O(N^2 d) to O(N k d).

#include "autograd/ops.h"
#include "nn/module.h"

namespace pristi::nn {

// kInvalidRequest unless `num_heads` >= 1 divides `d_model`: the attention
// layers split the channels evenly across the heads. Front ends call this
// before building a model, whose constructor CHECKs the same condition.
Status ValidateAttentionHeads(int64_t d_model, int64_t num_heads);

class MultiHeadAttention : public Module {
 public:
  // `virtual_nodes` == 0 disables downsampling. When > 0, `seq_len` must be
  // the fixed sequence length of the inputs (the node count N for spatial
  // attention) so the projection matrices P_K, P_V of shape (k, N) can be
  // allocated.
  MultiHeadAttention(int64_t d_model, int64_t num_heads, Rng& rng,
                     int64_t virtual_nodes = 0, int64_t seq_len = 0);

  // qk_source: (B, S, d_model); v_source: (B·G, S, d_model). Returns
  // (B·G, S, d_model). qk_source's rows come in blocks of `block_rows` (a
  // window's nodes or steps); with G > 1 (grouped, inference only)
  // v_source repeats that layout G times per block: v rows
  // (b·G + g)·block_rows + i share q/k row b·block_rows + i, whose Q/K
  // projections, virtual-node key compression and attention weights are
  // computed once for all G. Bitwise the G = 1 call on qk_source with each
  // block repeated G times.
  Variable Forward(const Variable& qk_source, const Variable& v_source,
                   int64_t block_rows = 1) const;

  // Self-attention convenience.
  Variable Forward(const Variable& x) const { return Forward(x, x); }

  int64_t d_model() const { return d_model_; }
  int64_t num_heads() const { return num_heads_; }
  int64_t virtual_nodes() const { return virtual_nodes_; }

 private:
  // The reference chain's head layout copies; the fused kernel reads the
  // heads in place. (B, S, d) -> (B, h, S, d/h).
  Variable SplitHeads(const Variable& x) const;
  // (B, h, S, d/h) -> (B, S, d).
  Variable MergeHeads(const Variable& x) const;

  int64_t d_model_;
  int64_t num_heads_;
  int64_t head_dim_;
  int64_t virtual_nodes_;
  Variable wq_, wk_, wv_, wo_;
  Variable pk_, pv_;  // (k, N) virtual-node projections when enabled
};

}  // namespace pristi::nn

#endif  // PRISTI_NN_ATTENTION_H_
