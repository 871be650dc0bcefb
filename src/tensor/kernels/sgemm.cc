#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/pack_cache.h"

// The AVX micro-kernel below is compiled with a per-function target
// attribute and selected behind a runtime CPUID check, so the translation
// unit itself stays buildable for (and safe on) plain-SSE2 x86-64.
#if defined(__GNUC__) && defined(__x86_64__)
#define PRISTI_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace pristi::tensor::kernels {
namespace {

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// op(A)(i, kk): kNormal reads the (m,k) buffer row-major, kTransposed reads
// the (k,m) buffer through its transpose.
inline float ReadA(Layout layout, const float* a, int64_t m, int64_t k,
                   int64_t i, int64_t kk) {
  return layout == Layout::kNormal ? a[i * k + kk] : a[kk * m + i];
}

// Packs rows [i0, i0 + kRowTile) of op(A) into a k-major panel:
// dst[kk * kRowTile + r] = op(A)(i0 + r, kk), rows past m zero-padded.
void PackAPanel(Layout layout, int64_t m, int64_t k, const float* a,
                int64_t i0, float* dst) {
  const int64_t mr = std::min(kRowTile, m - i0);
  if (layout == Layout::kNormal) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float* d = dst + kk * kRowTile;
      for (int64_t r = 0; r < mr; ++r) d[r] = a[(i0 + r) * k + kk];
      for (int64_t r = mr; r < kRowTile; ++r) d[r] = 0.0f;
    }
  } else {
    // Stored (k, m): logical row i0+r of Aᵀ is a contiguous run per kk.
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = a + kk * m + i0;
      float* d = dst + kk * kRowTile;
      for (int64_t r = 0; r < mr; ++r) d[r] = src[r];
      for (int64_t r = mr; r < kRowTile; ++r) d[r] = 0.0f;
    }
  }
}

// Packs columns [j0, j0 + kColTile) of op(B) into a k-major panel:
// dst[kk * kColTile + j] = op(B)(kk, j0 + j), columns past n zero-padded.
void PackBPanel(Layout layout, int64_t k, int64_t n, const float* b,
                int64_t j0, float* dst) {
  const int64_t nr = std::min(kColTile, n - j0);
  if (layout == Layout::kNormal) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = b + kk * n + j0;
      float* d = dst + kk * kColTile;
      for (int64_t j = 0; j < nr; ++j) d[j] = src[j];
      for (int64_t j = nr; j < kColTile; ++j) d[j] = 0.0f;
    }
  } else {
    // Stored (n, k): op(B)(kk, j) = b[(j0 + j) * k + kk] — the transpose
    // gather happens here, once per panel, instead of materializing Bᵀ.
    for (int64_t kk = 0; kk < k; ++kk) {
      float* d = dst + kk * kColTile;
      for (int64_t j = 0; j < nr; ++j) d[j] = b[(j0 + j) * k + kk];
      for (int64_t j = nr; j < kColTile; ++j) d[j] = 0.0f;
    }
  }
}

// Sizes a packing destination. The scratch vectors below are thread_local
// and the pool threads are persistent, so without a shrink a single huge
// activation GEMM would pin O(m*k + k*n) floats per worker for the rest of
// the process; drop the allocation first when it dwarfs the request (4x,
// above a 1 MiB floor so steady-state same-shape packing never thrashes).
void ResizeForPanel(std::vector<float>* out, int64_t floats) {
  constexpr size_t kShrinkFloorFloats = (size_t{1} << 20) / sizeof(float);
  const size_t want = static_cast<size_t>(floats);
  if (out->capacity() > kShrinkFloorFloats && out->capacity() / 4 > want) {
    std::vector<float>().swap(*out);
  }
  out->resize(want);
}

void PackAFull(Layout layout, int64_t m, int64_t k, const float* a,
               std::vector<float>* out) {
  const int64_t blocks = CeilDiv(m, kRowTile);
  ResizeForPanel(out, blocks * k * kRowTile);
  for (int64_t ib = 0; ib < blocks; ++ib) {
    PackAPanel(layout, m, k, a, ib * kRowTile,
               out->data() + ib * k * kRowTile);
  }
  Counters().panels_packed.fetch_add(static_cast<uint64_t>(blocks),
                                     std::memory_order_relaxed);
}

void PackBFull(Layout layout, int64_t k, int64_t n, const float* b,
               std::vector<float>* out) {
  const int64_t blocks = CeilDiv(n, kColTile);
  ResizeForPanel(out, blocks * k * kColTile);
  for (int64_t jb = 0; jb < blocks; ++jb) {
    PackBPanel(layout, k, n, b, jb * kColTile,
               out->data() + jb * k * kColTile);
  }
  Counters().panels_packed.fetch_add(static_cast<uint64_t>(blocks),
                                     std::memory_order_relaxed);
}

// kRowTile x kColTile register-tiled micro-kernel: one (row panel, column
// panel) pair across the FULL k extent — k is deliberately not blocked, so
// each accumulator slot carries a single increasing-kk chain of `+= a*b`,
// the exact chain ReferenceGemm produces. Zero-padded panel slots only
// feed accumulator lanes that are never stored (r >= mr or j >= nr).
//
// The store is `c +=`: every chain starts at the accumulator's +0.0, and a
// sum seeded with +0.0 can never round to -0.0, so on the zeroed C the
// entry points provide, `0.0f + acc` is bitwise `acc` — identical to the
// reference accumulating into C directly.
//
// Two implementations of the same chain:
//  * MicroKernelAvx — 8 ymm accumulators via AVX intrinsics. Deliberately
//    mul_ps + add_ps, never an FMA: a fused multiply-add rounds once where
//    the contract rounds twice, so FMA would break bit-identity. Each SIMD
//    lane is one independent c[i][j] chain — vector width changes nothing
//    about per-element arithmetic order. NOTE: writing separate intrinsics
//    is not sufficient by itself — the compiler inlines this function into
//    -march=native callers and, under -ffp-contract=fast/on, re-fuses the
//    mul/add pairs (and contracts the scalar loops above) into FMAs. The
//    build therefore sets -ffp-contract=off globally (CMakeLists.txt), and
//    tensor_test's NoFusedMultiplyAdd canary pins the double rounding.
//  * MicroKernelGeneric — walks the 16-wide panel in two 8-wide halves so
//    the 4x8 accumulator fits the 16 xmm registers of baseline SSE2 (a
//    4x16 float accumulator spills, measured 4x slower than reference).
//    Each half walks the full k extent, so per-element chains are again
//    untouched.

void MicroKernelGeneric(int64_t k, const float* ap, const float* bp,
                        int64_t mr, int64_t nr, float* c, int64_t ldc) {
  constexpr int64_t kHalf = kColTile / 2;
  for (int64_t h = 0; h < kColTile; h += kHalf) {
    float acc[kRowTile][kHalf] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* arow = ap + kk * kRowTile;
      const float* brow = bp + kk * kColTile + h;
      for (int64_t r = 0; r < kRowTile; ++r) {
        const float av = arow[r];
        for (int64_t j = 0; j < kHalf; ++j) acc[r][j] += av * brow[j];
      }
    }
    const int64_t nh = std::min(nr - h, kHalf);
    for (int64_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc + h;
      for (int64_t j = 0; j < nh; ++j) crow[j] += acc[r][j];
    }
  }
}

#ifdef PRISTI_GEMM_X86_DISPATCH
static_assert(kRowTile == 4 && kColTile == 16,
              "MicroKernelAvx hard-codes the 4x16 tile");

__attribute__((target("avx"))) void MicroKernelAvx(int64_t k, const float* ap,
                                                   const float* bp, int64_t mr,
                                                   int64_t nr, float* c,
                                                   int64_t ldc) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = ap + kk * kRowTile;
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kColTile);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kColTile + 8);
    const __m256 a0 = _mm256_broadcast_ss(arow + 0);
    acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(a0, b0));
    acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(a0, b1));
    const __m256 a1 = _mm256_broadcast_ss(arow + 1);
    acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(a1, b0));
    acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(a1, b1));
    const __m256 a2 = _mm256_broadcast_ss(arow + 2);
    acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(a2, b0));
    acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(a2, b1));
    const __m256 a3 = _mm256_broadcast_ss(arow + 3);
    acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(a3, b0));
    acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(a3, b1));
  }
  float acc[kRowTile][kColTile];
  _mm256_storeu_ps(&acc[0][0], acc00);
  _mm256_storeu_ps(&acc[0][8], acc01);
  _mm256_storeu_ps(&acc[1][0], acc10);
  _mm256_storeu_ps(&acc[1][8], acc11);
  _mm256_storeu_ps(&acc[2][0], acc20);
  _mm256_storeu_ps(&acc[2][8], acc21);
  _mm256_storeu_ps(&acc[3][0], acc30);
  _mm256_storeu_ps(&acc[3][8], acc31);
  for (int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] += acc[r][j];
  }
}

bool CpuHasAvx() {
  static const bool has = __builtin_cpu_supports("avx") != 0;
  return has;
}
#endif  // PRISTI_GEMM_X86_DISPATCH

inline void MicroKernel(int64_t k, const float* ap, const float* bp,
                        int64_t mr, int64_t nr, float* c, int64_t ldc) {
#ifdef PRISTI_GEMM_X86_DISPATCH
  if (CpuHasAvx()) {
    MicroKernelAvx(k, ap, bp, mr, nr, c, ldc);
    return;
  }
#endif
  MicroKernelGeneric(k, ap, bp, mr, nr, c, ldc);
}

// Computes row block `ib` of C from its packed A panel and every packed
// column panel of B.
void ComputeRowBlock(int64_t ib, int64_t m, int64_t n, int64_t k,
                     const float* a_panel, const float* bp, float* c) {
  const int64_t i0 = ib * kRowTile;
  const int64_t mr = std::min(kRowTile, m - i0);
  const int64_t col_blocks = CeilDiv(n, kColTile);
  for (int64_t jb = 0; jb < col_blocks; ++jb) {
    const int64_t j0 = jb * kColTile;
    MicroKernel(k, a_panel, bp + jb * k * kColTile, mr,
                std::min(kColTile, n - j0), c + i0 * n + j0, n);
  }
}

// Serial tiled compute over row blocks [b0, b1) given fully packed panels.
void TiledCompute(int64_t b0, int64_t b1, int64_t m, int64_t n, int64_t k,
                  const float* ap, const float* bp, float* c) {
  for (int64_t ib = b0; ib < b1; ++ib) {
    ComputeRowBlock(ib, m, n, k, ap + ib * k * kRowTile, bp, c);
  }
}

// TiledCompute for an A that is not packed up front: each row panel is
// packed from `a` into a reused per-thread scratch just before its row
// block runs, so a worker packs only the panels it computes.
void PackAndComputeRows(Layout layout_a, int64_t b0, int64_t b1, int64_t m,
                        int64_t n, int64_t k, const float* a,
                        const float* bp, float* c) {
  thread_local std::vector<float> a_panel;
  ResizeForPanel(&a_panel, k * kRowTile);
  for (int64_t ib = b0; ib < b1; ++ib) {
    PackAPanel(layout_a, m, k, a, ib * kRowTile, a_panel.data());
    ComputeRowBlock(ib, m, n, k, a_panel.data(), bp, c);
  }
  Counters().panels_packed.fetch_add(static_cast<uint64_t>(b1 - b0),
                                     std::memory_order_relaxed);
}

// True when `t` identifies an operand the pack cache may serve.
bool Cacheable(const Tensor* t) {
  return t != nullptr && t->storage_id() != 0 && PackCacheEnabled();
}

// Produces the packed panel for one operand: served from the pack cache
// when `cache_t` identifies a cacheable tensor, packed into `scratch`
// otherwise. `raw` must be the same bytes `cache_t` reads (its const
// data()). Exactly one of *hold / *scratch backs the returned pointer.
const float* AcquirePanel(char operand, Layout layout, int64_t rows,
                          int64_t cols, const float* raw,
                          const Tensor* cache_t, PackedPanel* hold,
                          std::vector<float>* scratch) {
  if (Cacheable(cache_t)) {
    PackKey key;
    key.storage_id = cache_t->storage_id();
    key.offset = cache_t->storage_offset();
    key.rows = rows;
    key.cols = cols;
    key.layout = layout;
    key.operand = operand;
    const uint64_t version = cache_t->storage_version();
    *hold = PackCacheLookup(key, version);
    if (*hold == nullptr) {
      auto panel = std::make_shared<std::vector<float>>();
      if (operand == 'A') {
        PackAFull(layout, rows, cols, raw, panel.get());
      } else {
        PackBFull(layout, rows, cols, raw, panel.get());
      }
      *hold = std::move(panel);
      PackCacheInsert(key, version, *hold);
    }
    return (*hold)->data();
  }
  if (operand == 'A') {
    PackAFull(layout, rows, cols, raw, scratch);
  } else {
    PackBFull(layout, rows, cols, raw, scratch);
  }
  return scratch->data();
}

// ParallelFor min_chunk so every worker gets at least kMinFlopsPerChunk
// multiply-add flops (`unit_flops` = flops per loop index).
int64_t MinChunkFor(int64_t unit_flops) {
  return std::max<int64_t>(
      1, pristi::kMinFlopsPerChunk / std::max<int64_t>(1, unit_flops));
}


}  // namespace

KernelStats GetKernelStats() {
  const KernelCounters& c = Counters();
  KernelStats s;
  s.gemm_calls = c.gemm_calls.load(std::memory_order_relaxed);
  s.flops = c.flops.load(std::memory_order_relaxed);
  s.panels_packed = c.panels_packed.load(std::memory_order_relaxed);
  s.pack_cache_hits = c.pack_cache_hits.load(std::memory_order_relaxed);
  s.pack_cache_misses = c.pack_cache_misses.load(std::memory_order_relaxed);
  s.pack_cache_bytes = c.pack_cache_bytes.load(std::memory_order_relaxed);
  s.fused_attn_rows = c.fused_attn_rows.load(std::memory_order_relaxed);
  s.fused_attn_kv_blocks =
      c.fused_attn_kv_blocks.load(std::memory_order_relaxed);
  s.fused_attn_bytes_avoided =
      c.fused_attn_bytes_avoided.load(std::memory_order_relaxed);
  return s;
}

// The i-k-j loop nest IS the bit-identity contract: every c[i][j] receives
// one `+= a*b` per kk, in increasing kk order, starting from whatever C
// held. The tiled path reproduces exactly this chain.
void ReferenceGemm(Layout layout_a, Layout layout_b, int64_t m, int64_t n,
                   int64_t k, const float* a, const float* b, float* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = ReadA(layout_a, a, m, k, i, kk);
      if (layout_b == Layout::kNormal) {
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] += av * b[j * k + kk];
      }
    }
  }
}

void Gemm(Layout layout_a, Layout layout_b, int64_t m, int64_t n, int64_t k,
          const float* a, const float* b, float* c, const Tensor* cache_a,
          const Tensor* cache_b) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  KernelCounters& ctr = Counters();
  ctr.gemm_calls.fetch_add(1, std::memory_order_relaxed);
  ctr.flops.fetch_add(2ull * static_cast<uint64_t>(m) *
                          static_cast<uint64_t>(n) * static_cast<uint64_t>(k),
                      std::memory_order_relaxed);

  // Workers own disjoint row blocks of C, so bit-identity holds at any
  // thread count. B, and A when it is a cached weight, are packed once on
  // the calling thread and read by every worker; an activation A is packed
  // by the workers, each only for the row blocks it computes.
  PackedPanel a_hold, b_hold;
  thread_local std::vector<float> b_scratch;
  const float* ap = nullptr;
  if (Cacheable(cache_a)) {
    ap = AcquirePanel('A', layout_a, m, k, a, cache_a, &a_hold, nullptr);
  }
  const float* bp =
      AcquirePanel('B', layout_b, k, n, b, cache_b, &b_hold, &b_scratch);

  const int64_t row_blocks = CeilDiv(m, kRowTile);
  pristi::ParallelFor(
      0, row_blocks,
      [&](int64_t b0, int64_t b1) {
        if (ap != nullptr) {
          TiledCompute(b0, b1, m, n, k, ap, bp, c);
        } else {
          PackAndComputeRows(layout_a, b0, b1, m, n, k, a, bp, c);
        }
      },
      MinChunkFor(2 * kRowTile * n * k));
}

void BatchedGemm(Layout layout_a, Layout layout_b, int64_t batch, int64_t m,
                 int64_t n, int64_t k, const float* a, int64_t stride_a,
                 const float* b, int64_t stride_b, float* c,
                 const Tensor* cache_a) {
  if (batch <= 0 || m <= 0 || n <= 0 || k <= 0) return;
  KernelCounters& ctr = Counters();
  ctr.gemm_calls.fetch_add(1, std::memory_order_relaxed);
  ctr.flops.fetch_add(2ull * static_cast<uint64_t>(batch) *
                          static_cast<uint64_t>(m) * static_cast<uint64_t>(n) *
                          static_cast<uint64_t>(k),
                      std::memory_order_relaxed);
  const int64_t item_flops = 2 * m * n * k;

  // A broadcast across the batch (stride 0) packs once up front — from the
  // cache when the caller identified the operand — and is shared read-only
  // by every worker.
  PackedPanel a_hold;
  std::vector<float> a_shared;
  const float* shared_ap = nullptr;
  if (stride_a == 0) {
    shared_ap = AcquirePanel('A', layout_a, m, k, a,
                             cache_a, &a_hold, &a_shared);
  }

  const int64_t row_blocks = CeilDiv(m, kRowTile);
  pristi::ParallelFor(
      0, batch,
      [&](int64_t b0, int64_t b1) {
        thread_local std::vector<float> a_scratch;
        thread_local std::vector<float> b_scratch;
        for (int64_t bi = b0; bi < b1; ++bi) {
          const float* ap = shared_ap;
          if (ap == nullptr) {
            PackAFull(layout_a, m, k, a + bi * stride_a, &a_scratch);
            ap = a_scratch.data();
          }
          PackBFull(layout_b, k, n, b + bi * stride_b, &b_scratch);
          TiledCompute(0, row_blocks, m, n, k, ap, b_scratch.data(),
                       c + bi * m * n);
        }
      },
      MinChunkFor(item_flops));
}

}  // namespace pristi::tensor::kernels
