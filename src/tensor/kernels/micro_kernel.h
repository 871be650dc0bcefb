#ifndef PRISTI_TENSOR_KERNELS_MICRO_KERNEL_H_
#define PRISTI_TENSOR_KERNELS_MICRO_KERNEL_H_

// Private to the kernel layer and its tests: which register-tile
// micro-kernel the tiled GEMM (sgemm.cc) runs. Gemm and BatchedGemm pick
// the best one the CPU supports on their own; nothing outside the layer
// names a kernel except the tests that check each against ReferenceGemm.

namespace pristi::tensor::kernels {

enum class MicroKernelKind {
  kGeneric,  // 4x16 scalar tile in two 8-wide halves (baseline SSE2)
  kYmm,      // 4x16 tile, two 256-bit vectors per row (AVX)
  kZmm,      // 12x16 tile over three A panels, one 512-bit vector per row
             // (AVX-512F); leftover row blocks run the ymm tile
};

// "generic", "ymm" or "zmm".
const char* MicroKernelName(MicroKernelKind kind);

// The CPUID feature `kind` needs ("avx", "avx512f"); "" for generic.
const char* MicroKernelCpuFlag(MicroKernelKind kind);

// True when this build carries `kind` and the CPU has its feature.
bool MicroKernelSupported(MicroKernelKind kind);

// The dispatch order: zmm with avx512f, else ymm with avx, else generic.
MicroKernelKind BestMicroKernel();

// Test-only: every Gemm / BatchedGemm that starts while the scope lives
// runs `kind`, which must be supported. Scopes do not nest, and no other
// thread may be starting a GEMM meanwhile.
class ScopedMicroKernelForTest {
 public:
  explicit ScopedMicroKernelForTest(MicroKernelKind kind);
  ~ScopedMicroKernelForTest();
  ScopedMicroKernelForTest(const ScopedMicroKernelForTest&) = delete;
  ScopedMicroKernelForTest& operator=(const ScopedMicroKernelForTest&) =
      delete;
};

}  // namespace pristi::tensor::kernels

#endif  // PRISTI_TENSOR_KERNELS_MICRO_KERNEL_H_
