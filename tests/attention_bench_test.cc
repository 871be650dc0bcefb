// AttentionBench: the streaming fused attention kernel never materializes
// the (batch, s, s) scores tensor that the reference chain
// (BatchedMatMulNT -> scale -> SoftmaxLastDim -> BatchedMatMul) allocates.
// The shape is the paper-full AQI spatial attention — batch = B*L*h =
// 1*36*8 attention problems over all 325 sensors at head_dim 8 — where the
// reference scores tensor alone is ~120 MB.
//
// AllocStats.peak_live_bytes is a process-lifetime high-water mark with no
// reset, so this check lives in its own binary and the fused phase runs
// FIRST: the reference phase's score allocations can only raise the peak.
// The gap is deterministic, not a speed claim. Registered under the `bench`
// ctest label because the reference phase peaks near 250 MB.

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/kernels/attention.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace pristi::tensor {
namespace {

TEST(AttentionBench, FusedPeakStaysAScoresTensorBelowReference) {
  const int64_t batch = 1 * 36 * 8, s = 325, dh = 8;
  const float scale_q = 1.0f / std::sqrt(static_cast<float>(dh));
  Rng rng(17);
  Tensor q = Tensor::Randn({batch, s, dh}, rng);
  Tensor k = Tensor::Randn({batch, s, dh}, rng);
  Tensor v = Tensor::Randn({batch, s, dh}, rng);
  Tensor out(q.shape()), lse(Shape{batch, s});

  kernels::FusedAttentionForward(batch, 1, s, s, dh, scale_q, q.data(),
                                 k.data(), v.data(), out.data(), lse.data(),
                                 &k);
  const uint64_t fused_peak = GetAllocStats().peak_live_bytes;

  // Exactly what the autograd reference path executes per forward.
  Tensor scores = BatchedMatMulNT(q, k);
  scores.ScaleInPlace(scale_q);
  Tensor weights = SoftmaxLastDim(scores);
  Tensor context = BatchedMatMul(weights, v);
  ASSERT_EQ(context.numel(), out.numel());
  const uint64_t reference_peak = GetAllocStats().peak_live_bytes;

  const uint64_t scores_bytes =
      static_cast<uint64_t>(batch) * s * s * sizeof(float);
  EXPECT_LT(fused_peak, reference_peak);
  EXPECT_GE(reference_peak - fused_peak, scores_bytes)
      << "fused peak " << fused_peak << " B, reference peak "
      << reference_peak << " B";
}

}  // namespace
}  // namespace pristi::tensor
