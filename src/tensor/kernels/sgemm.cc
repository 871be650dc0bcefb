#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/micro_kernel.h"
#include "tensor/kernels/pack_cache.h"

// The ymm and zmm micro-kernels below are compiled with per-function target
// attributes and selected behind a runtime CPUID check, so the translation
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

// Register-tiled micro-kernels: one (row tile, column panel) pair across
// the FULL k extent — k is deliberately not blocked, so each accumulator
// slot carries a single increasing-kk chain of `+= a*b`, the exact chain
// ReferenceGemm produces. Zero-padded panel slots only feed accumulator
// lanes that are never stored (r >= mr or j >= nr).
//
// The kernels continue C's chain: each accumulator is loaded from its
// c[i][j] before the first product and stored back after the last, so the
// result is ReferenceGemm's chain from whatever C held — a zeroed C gives
// the plain product, and a product split over k (two calls over k1 then k2
// on the same C) equals the single call over k1 + k2 bit for bit. Only the
// mr x nr live corner of the tile is read or written.
//
// Every kernel shares one signature: `ap` holds the tile's A panels
// back to back (panel p at ap + p * k * kRowTile, as PackAFull lays them
// out), `bp` one packed column panel, and (mr, nr) the live corner of C.
using MicroKernelFn = void (*)(int64_t k, const float* ap, const float* bp,
                               int64_t mr, int64_t nr, float* c,
                               int64_t ldc);

// MicroKernelGeneric — walks the 16-wide panel in two 8-wide halves so the
// 4x8 accumulator fits the 16 xmm registers of baseline SSE2 (a 4x16 float
// accumulator spills, measured 4x slower than reference). Each half walks
// the full k extent, so per-element chains are again untouched.
void MicroKernelGeneric(int64_t k, const float* ap, const float* bp,
                        int64_t mr, int64_t nr, float* c, int64_t ldc) {
  constexpr int64_t kHalf = kColTile / 2;
  for (int64_t h = 0; h < nr; h += kHalf) {
    const int64_t nh = std::min(nr - h, kHalf);
    float acc[kRowTile][kHalf] = {};
    for (int64_t r = 0; r < mr; ++r) {
      const float* crow = c + r * ldc + h;
      for (int64_t j = 0; j < nh; ++j) acc[r][j] = crow[j];
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* arow = ap + kk * kRowTile;
      const float* brow = bp + kk * kColTile + h;
      for (int64_t r = 0; r < kRowTile; ++r) {
        const float av = arow[r];
        for (int64_t j = 0; j < kHalf; ++j) acc[r][j] += av * brow[j];
      }
    }
    for (int64_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc + h;
      for (int64_t j = 0; j < nh; ++j) crow[j] = acc[r][j];
    }
  }
}

#ifdef PRISTI_GEMM_X86_DISPATCH
// MicroKernelSimd<Traits> — the vector kernel, written once over a vector
// traits type: `Vec` holds kLanes floats, a tile is kPanels A panels
// (kPanels * kRowTile rows) by kColTile columns, each row kColTile / kLanes
// vectors. Each SIMD lane is one independent c[i][j] chain, so neither the
// vector width nor the tile height changes any element's arithmetic order.
//
// MulAdd is deliberately mul_ps then add_ps, never an FMA: a fused
// multiply-add rounds once where the contract rounds twice. Writing
// separate intrinsics is not sufficient by itself — inlined into a
// -march=native caller, GCC under -ffp-contract=fast/on re-fuses the pairs
// (and contracts the scalar loops above) into FMAs. The build therefore
// sets -ffp-contract=off globally (CMakeLists.txt), tensor_test's
// NoFusedMultiplyAdd canary pins the double rounding, and pristi_analyze's
// fp-contraction pass rejects any FMA spelling under src/.
//
// Edge tiles need no copy: Load and Store take the live lane count of a
// vector (1..kLanes, masked below kLanes); vectors with no live lane and
// rows >= mr are neither loaded nor stored.
//
// The body uses no intrinsic itself. Each traits operation carries its ISA
// as a target attribute and takes vectors by pointer, so the template
// compiles for any target, and the flattening wrappers below
// (MicroKernelYmm / MicroKernelZmm) inline all of it into one function of
// their ISA.
template <class Traits>
void MicroKernelSimd(int64_t k, const float* ap, const float* bp, int64_t mr,
                     int64_t nr, float* c, int64_t ldc) {
  using Vec = typename Traits::Vec;
  constexpr int64_t kLanes = Traits::kLanes;
  constexpr int64_t kPanels = Traits::kPanels;
  constexpr int64_t kRows = kPanels * kRowTile;
  constexpr int64_t kVecs = kColTile / kLanes;
  static_assert(kColTile % kLanes == 0, "a row is whole vectors");
  int64_t live[kVecs];
  for (int64_t v = 0; v < kVecs; ++v) {
    live[v] = std::clamp<int64_t>(nr - v * kLanes, 0, kLanes);
  }
  const float* panel[kPanels];
  for (int64_t p = 0; p < kPanels; ++p) panel[p] = ap + p * k * kRowTile;

  Vec acc[kRows][kVecs];
#pragma GCC unroll 12
  for (int64_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int64_t v = 0; v < kVecs; ++v) {
      if (r < mr && live[v] > 0) {
        Traits::Load(&acc[r][v], c + r * ldc + v * kLanes, live[v]);
      } else {
        Traits::Zero(&acc[r][v]);
      }
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    Vec b[kVecs];
#pragma GCC unroll 2
    for (int64_t v = 0; v < kVecs; ++v) {
      Traits::Load(&b[v], bp + kk * kColTile + v * kLanes, kLanes);
    }
#pragma GCC unroll 12
    for (int64_t r = 0; r < kRows; ++r) {
      Vec a;
      Traits::Broadcast(&a, panel[r / kRowTile] + kk * kRowTile +
                                r % kRowTile);
#pragma GCC unroll 2
      for (int64_t v = 0; v < kVecs; ++v) {
        Traits::MulAdd(&acc[r][v], &a, &b[v]);
      }
    }
  }
#pragma GCC unroll 12
  for (int64_t r = 0; r < kRows; ++r) {
    if (r >= mr) break;
#pragma GCC unroll 2
    for (int64_t v = 0; v < kVecs; ++v) {
      if (live[v] > 0) {
        Traits::Store(c + r * ldc + v * kLanes, &acc[r][v], live[v]);
      }
    }
  }
}

// AVX: the 4x16 tile, two ymm vectors per row (8 accumulators).
struct YmmTraits {
  using Vec = __m256;
  static constexpr int64_t kLanes = 8;
  static constexpr int64_t kPanels = 1;

  __attribute__((target("avx"))) static void Zero(Vec* v) {
    *v = _mm256_setzero_ps();
  }
  // *v = p[0, live), lanes past `live` zero; nothing past them is read
  // (a masked-off lane neither loads nor faults). live is in 1..kLanes.
  __attribute__((target("avx"))) static void Load(Vec* v, const float* p,
                                                  int64_t live) {
    *v = live == kLanes ? _mm256_loadu_ps(p)
                        : _mm256_maskload_ps(p, LaneMask(live));
  }
  // p[0, live) = the first `live` lanes of *v; nothing past them is written.
  __attribute__((target("avx"))) static void Store(float* p, const Vec* v,
                                                   int64_t live) {
    if (live == kLanes) {
      _mm256_storeu_ps(p, *v);
    } else {
      _mm256_maskstore_ps(p, LaneMask(live), *v);
    }
  }
  __attribute__((target("avx"))) static void Broadcast(Vec* v,
                                                       const float* a) {
    *v = _mm256_broadcast_ss(a);
  }
  // *acc = *acc + *a * *b: the product rounded, then the sum.
  __attribute__((target("avx"))) static void MulAdd(Vec* acc, const Vec* a,
                                                    const Vec* b) {
    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(*a, *b));
  }

 private:
  // All-ones in lanes [0, live): a window into eight -1s then eight 0s.
  __attribute__((target("avx"))) static __m256i LaneMask(int64_t live) {
    static const int32_t kRun[2 * kLanes] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                             0,  0,  0,  0,  0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kRun + kLanes - live));
  }
};

// AVX-512F: a 12x16 tile over three consecutive A panels, one zmm vector
// per row (12 accumulators of the 32 zmm registers).
struct ZmmTraits {
  using Vec = __m512;
  static constexpr int64_t kLanes = 16;
  static constexpr int64_t kPanels = 3;

  __attribute__((target("avx512f"))) static void Zero(Vec* v) {
    *v = _mm512_setzero_ps();
  }
  __attribute__((target("avx512f"))) static void Load(Vec* v, const float* p,
                                                      int64_t live) {
    *v = live == kLanes ? _mm512_loadu_ps(p)
                        : _mm512_maskz_loadu_ps(LaneMask(live), p);
  }
  __attribute__((target("avx512f"))) static void Store(float* p,
                                                       const Vec* v,
                                                       int64_t live) {
    if (live == kLanes) {
      _mm512_storeu_ps(p, *v);
    } else {
      _mm512_mask_storeu_ps(p, LaneMask(live), *v);
    }
  }
  __attribute__((target("avx512f"))) static void Broadcast(Vec* v,
                                                           const float* a) {
    *v = _mm512_set1_ps(*a);
  }
  __attribute__((target("avx512f"))) static void MulAdd(Vec* acc,
                                                        const Vec* a,
                                                        const Vec* b) {
    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(*a, *b));
  }

 private:
  static __mmask16 LaneMask(int64_t live) {
    return static_cast<__mmask16>((1u << live) - 1u);
  }
};

__attribute__((target("avx"), flatten)) void MicroKernelYmm(
    int64_t k, const float* ap, const float* bp, int64_t mr, int64_t nr,
    float* c, int64_t ldc) {
  MicroKernelSimd<YmmTraits>(k, ap, bp, mr, nr, c, ldc);
}

__attribute__((target("avx512f"), flatten)) void MicroKernelZmm(
    int64_t k, const float* ap, const float* bp, int64_t mr, int64_t nr,
    float* c, int64_t ldc) {
  MicroKernelSimd<ZmmTraits>(k, ap, bp, mr, nr, c, ldc);
}
#endif  // PRISTI_GEMM_X86_DISPATCH

// The kernel the next GEMM runs: -1 follows BestMicroKernel(), anything
// else is a MicroKernelKind pinned by ScopedMicroKernelForTest.
std::atomic<int> g_pinned_kernel{-1};

MicroKernelKind ActiveMicroKernel() {
  const int pinned = g_pinned_kernel.load(std::memory_order_relaxed);
  return pinned < 0 ? BestMicroKernel()
                    : static_cast<MicroKernelKind>(pinned);
}

// The tiles one GEMM runs: `wide` covers `wide_panels` consecutive row
// blocks per call, `narrow` one row block (the row blocks left over when a
// worker's range is not a multiple of wide_panels). Only zmm has a wide
// tile; its leftovers run the ymm tile.
struct TileSet {
  MicroKernelFn wide;
  int64_t wide_panels;
  MicroKernelFn narrow;
};

TileSet TilesFor(MicroKernelKind kind) {
#ifdef PRISTI_GEMM_X86_DISPATCH
  if (kind == MicroKernelKind::kZmm) {
    return {MicroKernelZmm, ZmmTraits::kPanels, MicroKernelYmm};
  }
  if (kind == MicroKernelKind::kYmm) return {MicroKernelYmm, 1, MicroKernelYmm};
#endif
  PRISTI_CHECK(kind == MicroKernelKind::kGeneric);
  return {MicroKernelGeneric, 1, MicroKernelGeneric};
}

// Computes `panels` row blocks of C starting at block `ib`, from their
// packed A panels (back to back at `a_panels`) and every packed column
// panel of B, with one `kernel` call per column panel.
void ComputeRowBlocks(MicroKernelFn kernel, int64_t panels, int64_t ib,
                      int64_t m, int64_t n, int64_t k, const float* a_panels,
                      const float* bp, float* c) {
  const int64_t i0 = ib * kRowTile;
  const int64_t mr = std::min(panels * kRowTile, m - i0);
  const int64_t col_blocks = CeilDiv(n, kColTile);
  for (int64_t jb = 0; jb < col_blocks; ++jb) {
    const int64_t j0 = jb * kColTile;
    kernel(k, a_panels, bp + jb * k * kColTile, mr,
           std::min(kColTile, n - j0), c + i0 * n + j0, n);
  }
}

// Serial tiled compute over row blocks [b0, b1) given fully packed panels:
// wide tiles while a whole group of row blocks is left, then narrow ones.
void TiledCompute(const TileSet& tiles, int64_t b0, int64_t b1, int64_t m,
                  int64_t n, int64_t k, const float* ap, const float* bp,
                  float* c) {
  int64_t ib = b0;
  for (; ib + tiles.wide_panels <= b1; ib += tiles.wide_panels) {
    ComputeRowBlocks(tiles.wide, tiles.wide_panels, ib, m, n, k,
                     ap + ib * k * kRowTile, bp, c);
  }
  for (; ib < b1; ++ib) {
    ComputeRowBlocks(tiles.narrow, 1, ib, m, n, k, ap + ib * k * kRowTile,
                     bp, c);
  }
}

// TiledCompute for an A that is not packed up front: each tile's row
// panels are packed from `a` into a reused per-thread scratch just before
// the tile runs, so a worker packs only the panels it computes.
void PackAndComputeRows(const TileSet& tiles, Layout layout_a, int64_t b0,
                        int64_t b1, int64_t m, int64_t n, int64_t k,
                        const float* a, const float* bp, float* c) {
  thread_local std::vector<float> a_panels;
  ResizeForPanel(&a_panels, tiles.wide_panels * k * kRowTile);
  int64_t ib = b0;
  for (; ib + tiles.wide_panels <= b1; ib += tiles.wide_panels) {
    for (int64_t p = 0; p < tiles.wide_panels; ++p) {
      PackAPanel(layout_a, m, k, a, (ib + p) * kRowTile,
                 a_panels.data() + p * k * kRowTile);
    }
    ComputeRowBlocks(tiles.wide, tiles.wide_panels, ib, m, n, k,
                     a_panels.data(), bp, c);
  }
  for (; ib < b1; ++ib) {
    PackAPanel(layout_a, m, k, a, ib * kRowTile, a_panels.data());
    ComputeRowBlocks(tiles.narrow, 1, ib, m, n, k, a_panels.data(), bp, c);
  }
  Counters().panels_packed.fetch_add(static_cast<uint64_t>(b1 - b0),
                                     std::memory_order_relaxed);
}

// True when `t` identifies an operand the pack cache may serve.
bool Cacheable(const Tensor* t) {
  return t != nullptr && t->storage_id() != 0;
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

const char* MicroKernelName(MicroKernelKind kind) {
  switch (kind) {
    case MicroKernelKind::kGeneric:
      return "generic";
    case MicroKernelKind::kYmm:
      return "ymm";
    case MicroKernelKind::kZmm:
      return "zmm";
  }
  return "unknown";
}

const char* MicroKernelCpuFlag(MicroKernelKind kind) {
  switch (kind) {
    case MicroKernelKind::kGeneric:
      return "";
    case MicroKernelKind::kYmm:
      return "avx";
    case MicroKernelKind::kZmm:
      return "avx512f";
  }
  return "";
}

bool MicroKernelSupported(MicroKernelKind kind) {
#ifdef PRISTI_GEMM_X86_DISPATCH
  static const bool has_avx = __builtin_cpu_supports("avx") != 0;
  static const bool has_avx512f = __builtin_cpu_supports("avx512f") != 0;
  switch (kind) {
    case MicroKernelKind::kGeneric:
      return true;
    case MicroKernelKind::kYmm:
      return has_avx;
    case MicroKernelKind::kZmm:
      // The zmm tile's leftover row blocks run the ymm tile.
      return has_avx512f && has_avx;
  }
  return false;
#else
  return kind == MicroKernelKind::kGeneric;
#endif
}

MicroKernelKind BestMicroKernel() {
  static const MicroKernelKind best =
      MicroKernelSupported(MicroKernelKind::kZmm)   ? MicroKernelKind::kZmm
      : MicroKernelSupported(MicroKernelKind::kYmm) ? MicroKernelKind::kYmm
                                                    : MicroKernelKind::kGeneric;
  return best;
}

ScopedMicroKernelForTest::ScopedMicroKernelForTest(MicroKernelKind kind) {
  PRISTI_CHECK(MicroKernelSupported(kind)) << MicroKernelName(kind);
  PRISTI_CHECK_EQ(g_pinned_kernel.exchange(static_cast<int>(kind)), -1)
      << "ScopedMicroKernelForTest scopes do not nest";
}

ScopedMicroKernelForTest::~ScopedMicroKernelForTest() {
  g_pinned_kernel.store(-1);
}

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

  const TileSet tiles = TilesFor(ActiveMicroKernel());
  const int64_t row_blocks = CeilDiv(m, kRowTile);
  pristi::ParallelFor(
      0, row_blocks,
      [&](int64_t b0, int64_t b1) {
        if (ap != nullptr) {
          TiledCompute(tiles, b0, b1, m, n, k, ap, bp, c);
        } else {
          PackAndComputeRows(tiles, layout_a, b0, b1, m, n, k, a, bp, c);
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

  const TileSet tiles = TilesFor(ActiveMicroKernel());
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
          TiledCompute(tiles, 0, row_blocks, m, n, k, ap, b_scratch.data(),
                       c + bi * m * n);
        }
      },
      MinChunkFor(item_flops));
}

}  // namespace pristi::tensor::kernels
