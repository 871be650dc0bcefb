#include "tensor/kernels/attention.h"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/pack_cache.h"

namespace pristi::tensor::kernels {

namespace {

// Head dims in this codebase are channels/heads (4 quick, 8 paper); the cap
// only bounds the per-row stack scratch below.
constexpr int64_t kMaxHeadDim = 128;

// Panels per item and floats per item for the packed-K layout: kColTile-wide
// k-major column panels, zero-padded tail columns (the PackBPanel format of
// a kTransposed operand, K stored (s_k, dh) and read as Kᵀ).
int64_t PanelsPerItem(int64_t s_k) { return (s_k + kColTile - 1) / kColTile; }
int64_t FloatsPerItem(int64_t s_k, int64_t dh) {
  return PanelsPerItem(s_k) * dh * kColTile;
}

// Packs item `item` of K(batch, s_k, dh) into `dst` (FloatsPerItem floats):
// panel j0 holds, for each kk, the kColTile contiguous values K[j0+j, kk].
// A gather only — no arithmetic, so layout can never change results.
void PackKItem(const float* k_item, int64_t s_k, int64_t dh, float* dst) {
  for (int64_t j0 = 0; j0 < s_k; j0 += kColTile) {
    int64_t width = std::min<int64_t>(kColTile, s_k - j0);
    float* panel = dst + (j0 / kColTile) * (dh * kColTile);
    for (int64_t kk = 0; kk < dh; ++kk) {
      float* d = panel + kk * kColTile;
      const float* col = k_item + j0 * dh + kk;
      for (int64_t j = 0; j < width; ++j) d[j] = col[j * dh];
      for (int64_t j = width; j < kColTile; ++j) d[j] = 0.0f;
    }
  }
}

// Packs all batch items of K, consulting the pack cache when `cache_k`
// identifies cacheable storage: the forward inserts, and the backward's
// block recomputation — running while the autograd graph still pins K —
// hits instead of repacking. Returns the shared buffer; `*scratch` keeps a
// non-cached pack alive for the caller's duration.
const float* AcquireKPanels(int64_t batch, int64_t s_k, int64_t dh,
                            const float* k, const Tensor* cache_k,
                            PackedPanel* scratch) {
  int64_t per_item = FloatsPerItem(s_k, dh);
  int64_t total = batch * per_item;
  bool cacheable = cache_k != nullptr && cache_k->storage_id() != 0 &&
                   PackCacheEnabled();
  PackKey key;
  if (cacheable) {
    key.storage_id = cache_k->storage_id();
    key.offset = cache_k->storage_offset();
    key.rows = batch * s_k;
    key.cols = dh;
    key.layout = Layout::kTransposed;
    key.operand = 'K';
    PackedPanel hit = PackCacheLookup(key, cache_k->storage_version());
    if (hit != nullptr) {
      *scratch = hit;
      return hit->data();
    }
  }
  auto packed = std::make_shared<std::vector<float>>(
      static_cast<size_t>(total));
  float* dst = packed->data();
  // Item-parallel gather into the preallocated buffer (disjoint slices).
  ParallelFor(0, batch, [&](int64_t lo, int64_t hi) {
    for (int64_t item = lo; item < hi; ++item) {
      PackKItem(k + item * s_k * dh, s_k, dh, dst + item * per_item);
    }
  });
  Counters().panels_packed.fetch_add(
      static_cast<uint64_t>(batch * PanelsPerItem(s_k)),
      std::memory_order_relaxed);
  PackedPanel shared = std::move(packed);
  if (cacheable) PackCacheInsert(key, cache_k->storage_version(), shared);
  *scratch = shared;
  return shared->data();
}

// One score block: s[j] = sum_kk qs[kk] * panel[kk*kColTile + j] for
// `width` columns. Each column is an independent chain in strictly
// increasing kk with the multiply and the add rounded separately — the same
// scalar chain the reference GEMM performs — so the values are identical
// for any block width, and the lanes auto-vectorize without reordering.
// [fp-blessed] in tools/analysis/layers.manifest.
void FusedScoreBlock(const float* qs, const float* panel, int64_t dh,
                     float* s) {
  for (int64_t j = 0; j < kColTile; ++j) s[j] = 0.0f;
  for (int64_t kk = 0; kk < dh; ++kk) {
    const float qv = qs[kk];
    const float* p = panel + kk * kColTile;
    for (int64_t j = 0; j < kColTile; ++j) s[j] += qv * p[j];
  }
}

// ---- Polynomial exp ------------------------------------------------------
// exp(x) for the softmax weights: 2^n * poly(r) with x = n*ln2 + r and a
// degree-5 minimax polynomial on [-ln2/2, ln2/2] (the classic Cephes expf
// scheme), clamped below at -87 so the 2^n scaling never leaves the normal
// range. Relative error is < 1e-7, far inside the 1e-5 fused-vs-reference
// forward contract. The point of owning the polynomial instead of calling
// libm: the identical mul/add chain is evaluated per lane by the AVX2
// row-group kernel below and per element by the scalar path, making the two
// dispatch paths BIT-IDENTICAL — something no libm expf guarantees — and the
// vector form costs ~1 ns/element where a libm call in a register-heavy loop
// costs ~10.
// Symmetric clamp: softmax arguments are <= ~0, so the upper bound only
// guards the discarded zero-padded tail lanes (whose argument is -m and can
// be large) from overflowing the 2^n exponent shift.
constexpr float kExpClamp = 87.0f;
constexpr float kLog2E = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC5 = 1.9875691500e-4f;
constexpr float kExpC4 = 1.3981999507e-3f;
constexpr float kExpC3 = 8.3334519073e-3f;
constexpr float kExpC2 = 4.1665795894e-2f;
constexpr float kExpC1 = 1.6666665459e-1f;
constexpr float kExpC0 = 5.0000001201e-1f;

float FusedExp(float x) {
  x = std::min(std::max(x, -kExpClamp), kExpClamp);
  float nf = std::floor(x * kLog2E + 0.5f);
  float r = x - nf * kLn2Hi;
  r = r - nf * kLn2Lo;
  float p = kExpC5;
  p = p * r + kExpC4;
  p = p * r + kExpC3;
  p = p * r + kExpC2;
  p = p * r + kExpC1;
  p = p * r + kExpC0;
  p = p * r * r + r + 1.0f;
  int32_t bits;
  std::memcpy(&bits, &p, sizeof(bits));
  bits += static_cast<int32_t>(nf) << 23;
  float y;
  std::memcpy(&y, &bits, sizeof(y));
  return y;
}

#if defined(__x86_64__) || defined(__i386__)
#define PRISTI_ATTN_HAVE_AVX2 1

// Lane-for-lane the same operations as FusedExp: max, floor (rounds down,
// exactly _MM_FROUND_TO_NEG_INF), then the same mul/add chain — never an
// FMA, which would round once where the contract rounds twice.
__attribute__((target("avx2"))) inline __m256 FusedExpAvx8(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-kExpClamp)),
                    _mm256_set1_ps(kExpClamp));
  __m256 t = _mm256_mul_ps(x, _mm256_set1_ps(kLog2E));
  __m256 nf = _mm256_round_ps(_mm256_add_ps(t, _mm256_set1_ps(0.5f)),
                              _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpC5);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC0));
  p = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, r), r), r),
                    _mm256_set1_ps(1.0f));
  __m256i n = _mm256_cvtps_epi32(nf);
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(p), _mm256_slli_epi32(n, 23)));
}

// One packed kv block of softmax weights for the backward recompute.
__attribute__((target("avx2"))) void FusedExpBlockAvx(const float* x,
                                                      float* y) {
  static_assert(kColTile == 16, "two 8-lane halves per block");
  _mm256_storeu_ps(y, FusedExpAvx8(_mm256_loadu_ps(x)));
  _mm256_storeu_ps(y + 8, FusedExpAvx8(_mm256_loadu_ps(x + 8)));
}

bool Avx2Available() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#else
#define PRISTI_ATTN_HAVE_AVX2 0
bool Avx2Available() { return false; }
#endif

// Softmax weights for one kv block: y[j] = FusedExp(x[j]).
void FusedExpBlock(const float* x, float* y) {
#if PRISTI_ATTN_HAVE_AVX2
  if (Avx2Available()) {
    FusedExpBlockAvx(x, y);
    return;
  }
#endif
  for (int64_t j = 0; j < kColTile; ++j) y[j] = FusedExp(x[j]);
}

// One output row of the fused forward: stream the kv blocks of `panels`,
// maintain the online-softmax state — running max m, normalizer l (double),
// context accumulator o (float) — and write the normalized context row and
// the row logsumexp. The state advances once per kv block: the block's max
// is folded into m with a single rescale-on-new-max (l and o multiplied by
// exp(m_old - m_new)), then every weight in the block is exp(s - m) against
// the settled m. Within a block the per-column chains (scores, l adds, o
// accumulation) run in fixed increasing column order, so the result is
// identical at any thread count, any parallel partition, and on either
// dispatch path (the AVX2 row-group kernel below runs these chains once per
// lane, one query row per lane). kColTile is an algorithmic constant of the
// kernel, not a tuning knob — the recorded golden pins its value.
// [fp-blessed] in tools/analysis/layers.manifest.
void FusedForwardRow(const float* q_row, const float* panels,
                     const float* v_item, int64_t s_k, int64_t dh,
                     float scale, float* out_row, float* lse_out) {
  float qs[kMaxHeadDim];
  for (int64_t kk = 0; kk < dh; ++kk) qs[kk] = q_row[kk] * scale;
  float sblk[kColTile];
  float pblk[kColTile];
  float m = -std::numeric_limits<float>::infinity();
  double l = 0.0;
  float o[kMaxHeadDim];
  for (int64_t d = 0; d < dh; ++d) o[d] = 0.0f;
  for (int64_t j0 = 0; j0 < s_k; j0 += kColTile) {
    int64_t width = std::min<int64_t>(kColTile, s_k - j0);
    FusedScoreBlock(qs, panels + (j0 / kColTile) * dh * kColTile, dh, sblk);
    float bm = sblk[0];
    for (int64_t j = 1; j < width; ++j) bm = sblk[j] > bm ? sblk[j] : bm;
    if (bm > m) {
      // Rescale-on-new-max. Before the first block l and o are exactly
      // zero, so the clamped exp(-inf) needs no special case.
      float corr = FusedExp(m - bm);
      l *= corr;
      for (int64_t d = 0; d < dh; ++d) o[d] *= corr;
      m = bm;
    }
    for (int64_t j = 0; j < kColTile; ++j) pblk[j] = sblk[j] - m;
    FusedExpBlock(pblk, pblk);
    for (int64_t j = 0; j < width; ++j) l += pblk[j];
    for (int64_t j = 0; j < width; ++j) {
      const float* v_row = v_item + (j0 + j) * dh;
      for (int64_t d = 0; d < dh; ++d) o[d] += pblk[j] * v_row[d];
    }
  }
  for (int64_t d = 0; d < dh; ++d) {
    out_row[d] = static_cast<float>(static_cast<double>(o[d]) / l);
  }
  *lse_out = static_cast<float>(static_cast<double>(m) + std::log(l));
}

#if PRISTI_ATTN_HAVE_AVX2
// Query rows per AVX2 row group: one row per float lane.
constexpr int64_t kRowGroup = 8;

// Row-group forward for head_dim DH (4 and 8): lane r of every register is
// query row row0 + r of one batch item, and the eight rows share that item's
// K panels and V. Each lane runs FusedForwardRow's chains exactly — scores in
// increasing kk with the multiply and the add rounded separately, the block
// max as `s > bm ? s : bm`, one rescale per block in lanes whose max
// advanced (the others multiply by an exact 1.0), weights through the same
// polynomial exp, l adds in double and o accumulation in column order — so
// the output is bit-identical to the scalar path. Spare lanes of a partial
// tail group repeat the last valid row and are never stored.
template <int64_t DH>
__attribute__((target("avx2"))) void FusedForwardGroupAvx(
    const float* q_item, int64_t row0, int64_t s_q, const float* panels,
    const float* v_item, int64_t s_k, float scale, float* out_item,
    float* lse_item) {
  const int64_t valid = std::min<int64_t>(kRowGroup, s_q - row0);
  __m256 qv[DH];
  {
    alignas(32) float qt[DH][kRowGroup];
    for (int64_t r = 0; r < kRowGroup; ++r) {
      const float* q_row = q_item + (row0 + std::min(r, valid - 1)) * DH;
      for (int64_t kk = 0; kk < DH; ++kk) qt[kk][r] = q_row[kk];
    }
    const __m256 sv = _mm256_set1_ps(scale);
    for (int64_t kk = 0; kk < DH; ++kk) {
      qv[kk] = _mm256_mul_ps(_mm256_load_ps(qt[kk]), sv);
    }
  }
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 m = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256d l_lo = _mm256_setzero_pd(), l_hi = _mm256_setzero_pd();
  __m256 o[DH];
  for (int64_t d = 0; d < DH; ++d) o[d] = _mm256_setzero_ps();
  __m256 sblk[kColTile];
  for (int64_t j0 = 0; j0 < s_k; j0 += kColTile) {
    const int64_t width = std::min<int64_t>(kColTile, s_k - j0);
    const float* panel = panels + (j0 / kColTile) * DH * kColTile;
    for (int64_t j = 0; j < width; ++j) {
      __m256 s = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < DH; ++kk) {
        s = _mm256_add_ps(
            s, _mm256_mul_ps(qv[kk],
                             _mm256_broadcast_ss(panel + kk * kColTile + j)));
      }
      sblk[j] = s;
    }
    __m256 bm = sblk[0];
    for (int64_t j = 1; j < width; ++j) {
      bm = _mm256_blendv_ps(bm, sblk[j],
                            _mm256_cmp_ps(sblk[j], bm, _CMP_GT_OQ));
    }
    const __m256 adv = _mm256_cmp_ps(bm, m, _CMP_GT_OQ);
    const __m256 corr =
        _mm256_blendv_ps(one, FusedExpAvx8(_mm256_sub_ps(m, bm)), adv);
    l_lo = _mm256_mul_pd(l_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(corr)));
    l_hi = _mm256_mul_pd(l_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(corr, 1)));
    for (int64_t d = 0; d < DH; ++d) o[d] = _mm256_mul_ps(o[d], corr);
    m = _mm256_blendv_ps(m, bm, adv);
    const float* v_rows = v_item + j0 * DH;
    for (int64_t j = 0; j < width; ++j) {
      const __m256 p = FusedExpAvx8(_mm256_sub_ps(sblk[j], m));
      l_lo = _mm256_add_pd(l_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(p)));
      l_hi = _mm256_add_pd(l_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(p, 1)));
      for (int64_t d = 0; d < DH; ++d) {
        o[d] = _mm256_add_ps(
            o[d], _mm256_mul_ps(p, _mm256_broadcast_ss(v_rows + j * DH + d)));
      }
    }
  }
  alignas(32) float ot[DH][kRowGroup];
  alignas(32) float mt[kRowGroup];
  alignas(32) double lt[kRowGroup];
  for (int64_t d = 0; d < DH; ++d) _mm256_store_ps(ot[d], o[d]);
  _mm256_store_ps(mt, m);
  _mm256_store_pd(lt, l_lo);
  _mm256_store_pd(lt + 4, l_hi);
  for (int64_t r = 0; r < valid; ++r) {
    float* out_row = out_item + (row0 + r) * DH;
    for (int64_t d = 0; d < DH; ++d) {
      out_row[d] = static_cast<float>(static_cast<double>(ot[d][r]) / lt[r]);
    }
    lse_item[row0 + r] =
        static_cast<float>(static_cast<double>(mt[r]) + std::log(lt[r]));
  }
}
#endif  // PRISTI_ATTN_HAVE_AVX2

// Backward for one batch item, serial over its rows: recompute each score
// block from the packed panels (bitwise the forward's scores), reform
// p_j = exp(s_j - lse_i), and accumulate the three gradients. dq/dk/dv
// slices of this item are owned exclusively by the calling worker.
// [fp-blessed] in tools/analysis/layers.manifest.
void FusedBackwardItem(const float* q_item, const float* panels,
                       const float* k_item, const float* v_item,
                       const float* out_item, const float* lse_item,
                       const float* g_item, int64_t s_q, int64_t s_k,
                       int64_t dh, float scale, float* dq_item, float* dk_item,
                       float* dv_item) {
  for (int64_t i = 0; i < s_q * dh; ++i) dq_item[i] = 0.0f;
  for (int64_t i = 0; i < s_k * dh; ++i) dk_item[i] = 0.0f;
  for (int64_t i = 0; i < s_k * dh; ++i) dv_item[i] = 0.0f;
  float qs[kMaxHeadDim];
  double dq_acc[kMaxHeadDim];
  float sblk[kColTile];
  float pblk[kColTile];
  for (int64_t i = 0; i < s_q; ++i) {
    const float* q_row = q_item + i * dh;
    const float* g_row = g_item + i * dh;
    const float* o_row = out_item + i * dh;
    float lse = lse_item[i];
    for (int64_t kk = 0; kk < dh; ++kk) qs[kk] = q_row[kk] * scale;
    for (int64_t kk = 0; kk < dh; ++kk) dq_acc[kk] = 0.0;
    // D_i = gO[i] · out[i], the softmax-jacobian projection term.
    double d_i = 0.0;
    for (int64_t d = 0; d < dh; ++d) {
      d_i += static_cast<double>(g_row[d]) * static_cast<double>(o_row[d]);
    }
    for (int64_t j0 = 0; j0 < s_k; j0 += kColTile) {
      int64_t width = std::min<int64_t>(kColTile, s_k - j0);
      FusedScoreBlock(qs, panels + (j0 / kColTile) * dh * kColTile, dh, sblk);
      // Reformed weights p_j = exp(s_j - lse): same polynomial exp as the
      // forward, whole block at once (tail lanes discarded by `width`).
      for (int64_t j = 0; j < kColTile; ++j) pblk[j] = sblk[j] - lse;
      FusedExpBlock(pblk, pblk);
      for (int64_t j = 0; j < width; ++j) {
        int64_t col = j0 + j;
        float pf = pblk[j];
        const float* v_row = v_item + col * dh;
        float* dv_row = dv_item + col * dh;
        float* dk_row = dk_item + col * dh;
        const float* k_row = k_item + col * dh;
        double dp = 0.0;
        for (int64_t d = 0; d < dh; ++d) {
          dp += static_cast<double>(g_row[d]) * static_cast<double>(v_row[d]);
        }
        float ds = static_cast<float>(pf * (dp - d_i));
        for (int64_t d = 0; d < dh; ++d) dv_row[d] += pf * g_row[d];
        for (int64_t kk = 0; kk < dh; ++kk) dk_row[kk] += ds * qs[kk];
        for (int64_t kk = 0; kk < dh; ++kk) {
          dq_acc[kk] += static_cast<double>(ds) * k_row[kk];
        }
      }
    }
    float* dq_row = dq_item + i * dh;
    for (int64_t kk = 0; kk < dh; ++kk) {
      dq_row[kk] = static_cast<float>(dq_acc[kk]) * scale;
    }
  }
}

#if PRISTI_ATTN_HAVE_AVX2
// Per-worker scratch of FusedBackwardItemAvx, reused across the items of a
// ParallelFor chunk.
struct BackwardScratch {
  std::vector<float> v_panels;
  std::vector<float> p_rows;
  std::vector<double> d_rows;
  std::vector<double> dq_acc;
};

// Backward for one batch item at head_dim DH (4 and 8), bit-identical to
// FusedBackwardItem. Lanes run over kv COLUMNS, not rows as in the forward:
// dV[j] and dK[j] sum over rows i in increasing i, so with one column per
// lane those sums — and the scores, p = exp(s - lse), the double
// dp = gO[i]·V[j] in two __m256d, and ds — are per-lane chains in the
// scalar order. The item's columns are walked eight at a time (a half kv
// block; a block of width <= 8 has no upper half) with every row in
// increasing i inside, so each dV/dK accumulator stays in a register for the
// whole sweep. Each column group first forms the weights of all rows, then
// the gradients: the exp is the longest dependency chain, and this way the
// rows' exps overlap. dQ[i] sums over j in increasing j: one __m256d per 4 head
// dims, the same double chain as the scalar `dq_acc`, kept per row across
// column groups, which arrive in increasing j. V is packed into K's panel
// layout so a column group's V loads are contiguous; the packing and the
// final dK/dV stores only move data. Tail lanes past s_k read the panels'
// zero padding and are never stored.
// [fp-blessed] in tools/analysis/layers.manifest.
template <int64_t DH>
__attribute__((target("avx2"))) void FusedBackwardItemAvx(
    const float* q_item, const float* panels, const float* k_item,
    const float* v_item, const float* out_item, const float* lse_item,
    const float* g_item, int64_t s_q, int64_t s_k, float scale,
    float* dq_item, float* dk_item, float* dv_item,
    BackwardScratch* scratch) {
  static_assert(DH % 4 == 0, "one __m256d per 4 head dims");
  constexpr int64_t kLanes = 8;
  constexpr int64_t kDq = DH / 4;
  scratch->v_panels.resize(static_cast<size_t>(FloatsPerItem(s_k, DH)));
  PackKItem(v_item, s_k, DH, scratch->v_panels.data());
  scratch->p_rows.resize(static_cast<size_t>(s_q * kLanes));
  float* p_rows = scratch->p_rows.data();
  scratch->dq_acc.assign(static_cast<size_t>(s_q * DH), 0.0);
  double* dq_acc = scratch->dq_acc.data();
  // D_i = gO[i]·out[i] per row, in the scalar double chain.
  scratch->d_rows.resize(static_cast<size_t>(s_q));
  double* d_rows = scratch->d_rows.data();
  for (int64_t i = 0; i < s_q; ++i) {
    const float* g_row = g_item + i * DH;
    const float* o_row = out_item + i * DH;
    double d_i = 0.0;
    for (int64_t d = 0; d < DH; ++d) {
      d_i += static_cast<double>(g_row[d]) * static_cast<double>(o_row[d]);
    }
    d_rows[i] = d_i;
  }
  for (int64_t c0 = 0; c0 < s_k; c0 += kLanes) {
    const int64_t width = std::min<int64_t>(kLanes, s_k - c0);
    const int64_t off = (c0 / kColTile) * DH * kColTile + c0 % kColTile;
    const float* kp = panels + off;
    const float* vp = scratch->v_panels.data() + off;
    __m256 dv[DH];
    __m256 dk[DH];
    for (int64_t d = 0; d < DH; ++d) {
      dv[d] = _mm256_setzero_ps();
      dk[d] = _mm256_setzero_ps();
    }
    for (int64_t i = 0; i < s_q; ++i) {
      const float* q_row = q_item + i * DH;
      __m256 s = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < DH; ++kk) {
        const __m256 qs = _mm256_set1_ps(q_row[kk] * scale);
        s = _mm256_add_ps(
            s, _mm256_mul_ps(qs, _mm256_loadu_ps(kp + kk * kColTile)));
      }
      _mm256_storeu_ps(
          p_rows + i * kLanes,
          FusedExpAvx8(_mm256_sub_ps(s, _mm256_set1_ps(lse_item[i]))));
    }
    for (int64_t i = 0; i < s_q; ++i) {
      const float* q_row = q_item + i * DH;
      const float* g_row = g_item + i * DH;
      __m256 qs[DH];
      for (int64_t kk = 0; kk < DH; ++kk) {
        qs[kk] = _mm256_set1_ps(q_row[kk] * scale);
      }
      const __m256 p = _mm256_loadu_ps(p_rows + i * kLanes);
      __m256d dp_lo = _mm256_setzero_pd(), dp_hi = _mm256_setzero_pd();
      for (int64_t d = 0; d < DH; ++d) {
        const __m256d gd = _mm256_set1_pd(static_cast<double>(g_row[d]));
        const __m256 vd = _mm256_loadu_ps(vp + d * kColTile);
        dp_lo = _mm256_add_pd(
            dp_lo,
            _mm256_mul_pd(gd, _mm256_cvtps_pd(_mm256_castps256_ps128(vd))));
        dp_hi = _mm256_add_pd(
            dp_hi,
            _mm256_mul_pd(gd, _mm256_cvtps_pd(_mm256_extractf128_ps(vd, 1))));
      }
      const __m256d di = _mm256_set1_pd(d_rows[i]);
      const __m128 ds_lo = _mm256_cvtpd_ps(
          _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(p)),
                        _mm256_sub_pd(dp_lo, di)));
      const __m128 ds_hi = _mm256_cvtpd_ps(
          _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(p, 1)),
                        _mm256_sub_pd(dp_hi, di)));
      const __m256 ds = _mm256_set_m128(ds_hi, ds_lo);
      for (int64_t d = 0; d < DH; ++d) {
        dv[d] = _mm256_add_ps(dv[d],
                              _mm256_mul_ps(p, _mm256_set1_ps(g_row[d])));
      }
      for (int64_t kk = 0; kk < DH; ++kk) {
        dk[kk] = _mm256_add_ps(dk[kk], _mm256_mul_ps(ds, qs[kk]));
      }
      alignas(32) double dsd[kLanes];
      _mm256_store_pd(dsd, _mm256_cvtps_pd(ds_lo));
      _mm256_store_pd(dsd + 4, _mm256_cvtps_pd(ds_hi));
      double* acc_row = dq_acc + i * DH;
      __m256d acc[kDq];
      for (int64_t r = 0; r < kDq; ++r) {
        acc[r] = _mm256_loadu_pd(acc_row + 4 * r);
      }
      for (int64_t j = 0; j < width; ++j) {
        const __m256d dsj = _mm256_set1_pd(dsd[j]);
        const float* k_row = k_item + (c0 + j) * DH;
        for (int64_t r = 0; r < kDq; ++r) {
          const __m256d kd = _mm256_cvtps_pd(_mm_loadu_ps(k_row + 4 * r));
          acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(dsj, kd));
        }
      }
      for (int64_t r = 0; r < kDq; ++r) {
        _mm256_storeu_pd(acc_row + 4 * r, acc[r]);
      }
    }
    alignas(32) float dvt[DH][kLanes];
    alignas(32) float dkt[DH][kLanes];
    for (int64_t d = 0; d < DH; ++d) {
      _mm256_store_ps(dvt[d], dv[d]);
      _mm256_store_ps(dkt[d], dk[d]);
    }
    for (int64_t j = 0; j < width; ++j) {
      for (int64_t d = 0; d < DH; ++d) {
        dv_item[(c0 + j) * DH + d] = dvt[d][j];
        dk_item[(c0 + j) * DH + d] = dkt[d][j];
      }
    }
  }
  const __m128 sv = _mm_set1_ps(scale);
  for (int64_t i = 0; i < s_q; ++i) {
    for (int64_t r = 0; r < kDq; ++r) {
      _mm_storeu_ps(dq_item + i * DH + 4 * r,
                    _mm_mul_ps(_mm256_cvtpd_ps(_mm256_loadu_pd(
                                   dq_acc + i * DH + 4 * r)),
                               sv));
    }
  }
}
#endif  // PRISTI_ATTN_HAVE_AVX2

std::atomic<bool> g_fused_attention_enabled{true};

}  // namespace

bool FusedAttentionEnabled() {
  return g_fused_attention_enabled.load(std::memory_order_relaxed);
}

bool SetFusedAttentionEnabled(bool enabled) {
  return g_fused_attention_enabled.exchange(enabled,
                                            std::memory_order_relaxed);
}

namespace {

// Shared body of FusedAttentionForward and its scalar oracle. Every output
// row is owned by exactly one ParallelFor worker, on either path.
void ForwardImpl(int64_t batch, int64_t s_q, int64_t s_k, int64_t dh,
                 float scale, const float* q, const float* k, const float* v,
                 float* out, float* lse, const Tensor* cache_k,
                 bool allow_row_groups) {
  if (batch <= 0 || s_q <= 0 || s_k <= 0 || dh <= 0) return;
  PRISTI_CHECK_LE(dh, kMaxHeadDim) << "head_dim exceeds fused-kernel cap";
  PackedPanel hold;
  const float* panels = AcquireKPanels(batch, s_k, dh, k, cache_k, &hold);
  int64_t per_item = FloatsPerItem(s_k, dh);
  int64_t rows = batch * s_q;
  // Per-row cost is the 2*2*s_k*dh multiply-add flops of the two fused
  // products.
  int64_t row_flops = std::max<int64_t>(1, 4 * s_k * dh);
#if PRISTI_ATTN_HAVE_AVX2
  // head_dim 4 and 8 take the row-group kernel, bit-identical to
  // FusedForwardRow, so the dispatch never changes output. The parallel
  // unit is one (item, group) pair.
  if (allow_row_groups && (dh == 4 || dh == 8) && Avx2Available()) {
    auto* group_kernel =
        dh == 4 ? &FusedForwardGroupAvx<4> : &FusedForwardGroupAvx<8>;
    int64_t groups = (s_q + kRowGroup - 1) / kRowGroup;
    int64_t min_units =
        std::max<int64_t>(1, kMinFlopsPerChunk / (kRowGroup * row_flops));
    ParallelFor(
        0, batch * groups,
        [&](int64_t lo, int64_t hi) {
          for (int64_t unit = lo; unit < hi; ++unit) {
            int64_t item = unit / groups;
            group_kernel(q + item * s_q * dh, (unit % groups) * kRowGroup,
                         s_q, panels + item * per_item, v + item * s_k * dh,
                         s_k, scale, out + item * s_q * dh, lse + item * s_q);
          }
        },
        min_units);
  } else
#endif
  {
    (void)allow_row_groups;
    ParallelFor(
        0, rows,
        [&](int64_t lo, int64_t hi) {
          for (int64_t idx = lo; idx < hi; ++idx) {
            int64_t item = idx / s_q;
            FusedForwardRow(q + idx * dh, panels + item * per_item,
                            v + item * s_k * dh, s_k, dh, scale,
                            out + idx * dh, lse + idx);
          }
        },
        std::max<int64_t>(1, kMinFlopsPerChunk / row_flops));
  }
  KernelCounters& ctr = Counters();
  ctr.fused_attn_rows.fetch_add(static_cast<uint64_t>(rows),
                                std::memory_order_relaxed);
  ctr.fused_attn_kv_blocks.fetch_add(
      static_cast<uint64_t>(rows * PanelsPerItem(s_k)),
      std::memory_order_relaxed);
  // What the reference chain would have materialized: the (batch, s_q, s_k)
  // scores tensor and the same-shaped softmax output.
  ctr.fused_attn_bytes_avoided.fetch_add(
      static_cast<uint64_t>(2 * batch * s_q * s_k) * sizeof(float),
      std::memory_order_relaxed);
}

// Shared body of FusedAttentionBackward and its scalar oracle.
// Item-parallel, serial within an item: each item's dq/dk/dv slices are
// written by exactly one worker, in the same order at any thread count.
void BackwardImpl(int64_t batch, int64_t s_q, int64_t s_k, int64_t dh,
                  float scale, const float* q, const float* k, const float* v,
                  const float* out, const float* lse, const float* grad_out,
                  float* dq, float* dk, float* dv, const Tensor* cache_k,
                  bool allow_columns) {
  if (batch <= 0 || s_q <= 0 || s_k <= 0 || dh <= 0) return;
  PRISTI_CHECK_LE(dh, kMaxHeadDim) << "head_dim exceeds fused-kernel cap";
  PackedPanel hold;
  const float* panels = AcquireKPanels(batch, s_k, dh, k, cache_k, &hold);
  int64_t per_item = FloatsPerItem(s_k, dh);
#if PRISTI_ATTN_HAVE_AVX2
  // head_dim 4 and 8 take the column-lane kernel, bit-identical to
  // FusedBackwardItem, so the dispatch never changes a gradient.
  if (allow_columns && (dh == 4 || dh == 8) && Avx2Available()) {
    auto* item_kernel =
        dh == 4 ? &FusedBackwardItemAvx<4> : &FusedBackwardItemAvx<8>;
    ParallelFor(0, batch, [&](int64_t lo, int64_t hi) {
      BackwardScratch scratch;
      for (int64_t item = lo; item < hi; ++item) {
        int64_t qoff = item * s_q * dh;
        int64_t koff = item * s_k * dh;
        item_kernel(q + qoff, panels + item * per_item, k + koff, v + koff,
                    out + qoff, lse + item * s_q, grad_out + qoff, s_q, s_k,
                    scale, dq + qoff, dk + koff, dv + koff, &scratch);
      }
    });
  } else
#endif
  {
    (void)allow_columns;
    ParallelFor(0, batch, [&](int64_t lo, int64_t hi) {
      for (int64_t item = lo; item < hi; ++item) {
        int64_t qoff = item * s_q * dh;
        int64_t koff = item * s_k * dh;
        FusedBackwardItem(q + qoff, panels + item * per_item, k + koff,
                          v + koff, out + qoff, lse + item * s_q,
                          grad_out + qoff, s_q, s_k, dh, scale, dq + qoff,
                          dk + koff, dv + koff);
      }
    });
  }
  Counters().fused_attn_kv_blocks.fetch_add(
      static_cast<uint64_t>(batch * s_q * PanelsPerItem(s_k)),
      std::memory_order_relaxed);
}

}  // namespace

void FusedAttentionForward(int64_t batch, int64_t s_q, int64_t s_k,
                           int64_t dh, float scale, const float* q,
                           const float* k, const float* v, float* out,
                           float* lse, const Tensor* cache_k) {
  ForwardImpl(batch, s_q, s_k, dh, scale, q, k, v, out, lse, cache_k,
              /*allow_row_groups=*/true);
}

void FusedAttentionForwardScalar(int64_t batch, int64_t s_q, int64_t s_k,
                                 int64_t dh, float scale, const float* q,
                                 const float* k, const float* v, float* out,
                                 float* lse) {
  ForwardImpl(batch, s_q, s_k, dh, scale, q, k, v, out, lse,
              /*cache_k=*/nullptr, /*allow_row_groups=*/false);
}

void FusedAttentionBackward(int64_t batch, int64_t s_q, int64_t s_k,
                            int64_t dh, float scale, const float* q,
                            const float* k, const float* v, const float* out,
                            const float* lse, const float* grad_out,
                            float* dq, float* dk, float* dv,
                            const Tensor* cache_k) {
  BackwardImpl(batch, s_q, s_k, dh, scale, q, k, v, out, lse, grad_out, dq,
               dk, dv, cache_k, /*allow_columns=*/true);
}

void FusedAttentionBackwardScalar(int64_t batch, int64_t s_q, int64_t s_k,
                                  int64_t dh, float scale, const float* q,
                                  const float* k, const float* v,
                                  const float* out, const float* lse,
                                  const float* grad_out, float* dq, float* dk,
                                  float* dv) {
  BackwardImpl(batch, s_q, s_k, dh, scale, q, k, v, out, lse, grad_out, dq,
               dk, dv, /*cache_k=*/nullptr, /*allow_columns=*/false);
}

}  // namespace pristi::tensor::kernels
