#ifndef PRISTI_TENSOR_KERNELS_KERNELS_H_
#define PRISTI_TENSOR_KERNELS_KERNELS_H_

// Tiled SGEMM kernel layer.
//
// Every MatMul-family entry point in tensor/tensor.h bottoms out here. The
// layer provides one register-tiled (kRowTile x kColTile accumulator
// block), panel-packed micro-kernel with four logical layouts (NN/NT/TN —
// TT never occurs in this codebase) and a batched driver, plus a retained
// reference kernel that tests call directly as the exact-equality oracle.
//
// Bit-identity contract: for every output element c[i][j], ALL kernels
// perform the same scalar chain
//     c = (((0 + a(i,0)*b(0,j)) + a(i,1)*b(1,j)) + ...)
// in strictly increasing k order — each product rounded, then the add
// rounded, never a fused multiply-add (the AVX variant in sgemm.cc uses
// explicit mul_ps/add_ps, and the build compiles everything with
// -ffp-contract=off so no config re-fuses them). Tiling and SIMD width
// only change which independent chains advance together, and packing only
// changes where operand bytes are read from, so the tiled kernels (AVX or
// generic, selected by runtime CPUID) are bit-identical to the reference
// i-k-j kernel — and therefore to every golden produced before this layer
// existed — at any thread count, with packing on or off.
//
// Packing: B is packed into kColTile-wide column panels (k-major, zero-
// padded tail columns) and A into kRowTile-wide row panels (k-major,
// zero-padded tail rows), so the micro-kernel reads both operands
// contiguously regardless of layout; the NT/TN gather happens once at pack
// time instead of materializing a TransposeLast2 copy per call. Panels for
// long-lived operands (Linear / Conv1x1 weights, graph-conv supports) are
// cached across calls, keyed on (storage id, version, offset, dims): the
// cache is consulted by MatMulLastDim[T] / MatMulNodeDim[T], hit as long
// as the weight is unchanged, and invalidated automatically because any
// mutating access bumps the storage version (tensor.h). See pack_cache.cc.
//
// Parallelism: a single GEMM is row-parallel (each worker owns whole rows
// of C; chunking derives from pristi::kMinFlopsPerChunk), batched GEMMs
// are batch-parallel with a serial kernel per item. Both partitions keep
// each output element on exactly one thread, preserving bit-identity.
//
// Environment knob (read once at first use; see src/common/env.h):
//   PRISTI_PACK_CACHE_MB=N  cap on resident packed panels (default 64);
//                           0 disables the cache (panels pack per call).

#include <cstdint>

#include "tensor/tensor.h"

namespace pristi::tensor::kernels {

// Register-tile footprint of the micro-kernel: kRowTile rows of A against
// kColTile columns of B accumulate in registers across the full k extent.
inline constexpr int64_t kRowTile = 4;
inline constexpr int64_t kColTile = 16;

// How an operand is stored relative to its logical role in C += A·B.
//   A: kNormal = (m,k) row-major, kTransposed = stored (k,m), read as Aᵀ.
//   B: kNormal = (k,n) row-major, kTransposed = stored (n,k), read as Bᵀ.
enum class Layout { kNormal, kTransposed };

// Cumulative counters since process start (all monotonic; benches report
// phase deltas). `flops` counts 2*m*n*k per GEMM; `pack_cache_bytes` is the
// current resident size, not a cumulative sum.
struct KernelStats {
  uint64_t gemm_calls = 0;         // Gemm + BatchedGemm invocations
  uint64_t flops = 0;              // multiply-add flops issued (2*m*n*k)
  uint64_t panels_packed = 0;      // A/B panels packed (scratch or cache)
  uint64_t pack_cache_hits = 0;    // panel served from the cache
  uint64_t pack_cache_misses = 0;  // packed fresh (includes stale versions)
  uint64_t pack_cache_bytes = 0;   // bytes currently resident in the cache
  // Fused-attention kernel (tensor/kernels/attention.cc): output rows
  // streamed, kv column blocks visited (forward + backward recompute), and
  // score/softmax bytes NOT materialized relative to the reference chain.
  uint64_t fused_attn_rows = 0;
  uint64_t fused_attn_kv_blocks = 0;
  uint64_t fused_attn_bytes_avoided = 0;

  double PackCacheHitRate() const {
    uint64_t lookups = pack_cache_hits + pack_cache_misses;
    return lookups > 0
               ? static_cast<double>(pack_cache_hits) /
                     static_cast<double>(lookups)
               : 0.0;
  }
};

KernelStats GetKernelStats();

// Reference kernel: C += op(A)·op(B) with the plain i-k-j loop, operands
// read in place (strided when transposed). Serial; test-only, the
// bit-identity oracle the tiled kernels are checked against.
void ReferenceGemm(Layout layout_a, Layout layout_b, int64_t m, int64_t n,
                   int64_t k, const float* a, const float* b, float* c);

// Single GEMM: C(m,n) += op(A)(m,k) · op(B)(k,n), row-parallel on the
// persistent pool. `cache_a` / `cache_b`, when non-null, must be the tensor
// whose data() backs the corresponding raw pointer; its storage identity
// keys the pack cache so the packed panel is reused across calls. Pass
// nullptr for operands that change every call (activations, gradients).
void Gemm(Layout layout_a, Layout layout_b, int64_t m, int64_t n, int64_t k,
          const float* a, const float* b, float* c,
          const Tensor* cache_a = nullptr, const Tensor* cache_b = nullptr);

// Batched GEMM: batch independent products with element strides between
// consecutive items (stride 0 broadcasts the operand across the batch, the
// MatMulNodeDim case). Batch-parallel; each item runs the serial tiled
// kernel. `cache_a` is honored only with stride_a == 0 (a shared A panel).
void BatchedGemm(Layout layout_a, Layout layout_b, int64_t batch, int64_t m,
                 int64_t n, int64_t k, const float* a, int64_t stride_a,
                 const float* b, int64_t stride_b, float* c,
                 const Tensor* cache_a = nullptr);

}  // namespace pristi::tensor::kernels

#endif  // PRISTI_TENSOR_KERNELS_KERNELS_H_
