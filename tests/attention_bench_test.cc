// AttentionBench: the streaming fused attention kernel against the
// materialized reference chain (BatchedMatMulNT -> scale -> SoftmaxLastDim
// -> BatchedMatMul) at the paper-full AQI spatial shape — batch = B*L*h =
// 1*36*8 attention problems over all 325 sensors at head_dim 8, where the
// reference scores tensor alone is ~120 MB. Records forward GF/s for both
// paths, the allocator's peak-live-bytes high-water mark after each phase
// (the fused phase runs FIRST because the peak is monotone: the reference
// phase's score allocations can only raise it), single-thread backward
// times of the dispatched kernel against the scalar oracle at the two
// train-metr207 attention shapes, and the end-to-end S=32 sampler
// throughput delta from switching the fused kernel off through the
// SetFusedAttentionEnabled test seam.
//
// Emits BENCH_attention.json to PRISTI_BENCH_DIR (or a temp dir). The peak
// memory ordering is asserted (it is deterministic: the fused kernel never
// allocates a score tensor); throughput is recorded, not asserted, like
// every other bench here. Registered under the `bench` ctest label so
// gating runs exclude it (`ctest -LE bench`).

#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "pristi/pristi_model.h"
#include "tensor/kernels/attention.h"
#include "tensor/kernels/kernels.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"
#include "test_tmpdir.h"

namespace pristi::bench {
namespace {

namespace kn = ::pristi::tensor::kernels;
using ::pristi::tensor::Shape;
using ::pristi::tensor::Tensor;

// Repeats `fn` until it has run for at least ~0.2 s, returns seconds/call.
template <typename Fn>
double TimePerCall(const Fn& fn) {
  fn();  // warm-up: scratch buffers, pack cache, pool workers
  int64_t iters = 1;
  for (;;) {
    Stopwatch watch;
    for (int64_t i = 0; i < iters; ++i) fn();
    double sec = watch.ElapsedSeconds();
    if (sec >= 0.2 || iters >= (int64_t{1} << 20)) {
      return sec / static_cast<double>(iters);
    }
    iters *= 2;
  }
}

TEST(AttentionBench, FusedVsReferenceAndSamplerDelta) {
  // Paper-full AQI spatial attention: every (window, step, head) attends
  // over all 325 sensors. B=1, L=36, h=8, dh=8.
  const int64_t batch = 1 * 36 * 8, s = 325, dh = 8;
  const float scale_q = 1.0f / std::sqrt(static_cast<float>(dh));
  Rng rng(17);
  Tensor q = Tensor::Randn({batch, s, dh}, rng);
  Tensor k = Tensor::Randn({batch, s, dh}, rng);
  Tensor v = Tensor::Randn({batch, s, dh}, rng);
  Tensor out(q.shape()), lse(Shape{batch, s});

  // Fused phase FIRST: AllocStats.peak_live_bytes is a process-lifetime
  // high-water mark with no reset, so the ordering is what makes the two
  // peaks comparable.
  double fused_sec = TimePerCall([&] {
    kn::FusedAttentionForward(batch, s, s, dh, scale_q, q.data(), k.data(),
                              v.data(), out.data(), lse.data(), &k);
  });
  uint64_t fused_peak = tensor::GetAllocStats().peak_live_bytes;

  // Reference chain, tensor-level (exactly what the autograd reference path
  // executes per forward): materializes the (batch, s, s) scores twice over.
  double reference_sec = TimePerCall([&] {
    Tensor scores = tensor::BatchedMatMulNT(q, k);
    scores.ScaleInPlace(scale_q);
    Tensor weights = tensor::SoftmaxLastDim(scores);
    Tensor context = tensor::BatchedMatMul(weights, v);
    ASSERT_EQ(context.numel(), out.numel());
  });
  uint64_t reference_peak = tensor::GetAllocStats().peak_live_bytes;

  const uint64_t scores_bytes =
      static_cast<uint64_t>(batch) * s * s * sizeof(float);
  // Deterministic, not a speed claim: the fused kernel never allocates the
  // score tensor, so the reference phase must raise the high-water mark by
  // at least one full scores allocation.
  EXPECT_LT(fused_peak, reference_peak);
  EXPECT_GE(reference_peak - fused_peak, scores_bytes);

  // 2 GEMMs (scores + context) at 2 flops per multiply-add.
  double flops = 4.0 * static_cast<double>(batch) * s * s * dh;
  double fused_gflops = flops / fused_sec / 1e9;
  double reference_gflops = flops / reference_sec / 1e9;

  // Fused backward at the two attention shapes of one train-metr207 window
  // (N=207, L=24, 4 heads of head_dim 4): temporal attention over L for
  // each of N·h = 828 (node, head) pairs, and spatial attention of the 207
  // nodes against 8 virtual nodes for each of L·h = 96 (step, head) pairs.
  // The dispatched kernel against the scalar oracle, single-threaded.
  struct BackwardTiming {
    const char* name;
    int64_t batch, s_q, s_k, dh;
    double dispatched_ms, scalar_ms;
  };
  BackwardTiming backward[] = {{"train_temporal", 828, 24, 24, 4, 0, 0},
                               {"train_spatial", 96, 207, 8, 4, 0, 0}};
  const int64_t prev_threads = ParallelThreadCount();
  SetParallelThreadCount(1);
  for (BackwardTiming& b : backward) {
    const float scale_b = 1.0f / std::sqrt(static_cast<float>(b.dh));
    Tensor bq = Tensor::Randn({b.batch, b.s_q, b.dh}, rng);
    Tensor bk = Tensor::Randn({b.batch, b.s_k, b.dh}, rng);
    Tensor bv = Tensor::Randn({b.batch, b.s_k, b.dh}, rng);
    Tensor bg = Tensor::Randn({b.batch, b.s_q, b.dh}, rng);
    Tensor bout(bq.shape()), blse(Shape{b.batch, b.s_q});
    Tensor dq(bq.shape()), dk(bk.shape()), dv(bv.shape());
    kn::FusedAttentionForward(b.batch, b.s_q, b.s_k, b.dh, scale_b,
                              bq.data(), bk.data(), bv.data(), bout.data(),
                              blse.data(), &bk);
    b.dispatched_ms = 1e3 * TimePerCall([&] {
      kn::FusedAttentionBackward(b.batch, b.s_q, b.s_k, b.dh, scale_b,
                                 bq.data(), bk.data(), bv.data(), bout.data(),
                                 blse.data(), bg.data(), dq.data(), dk.data(),
                                 dv.data(), &bk);
    });
    b.scalar_ms = 1e3 * TimePerCall([&] {
      kn::FusedAttentionBackwardScalar(
          b.batch, b.s_q, b.s_k, b.dh, scale_b, bq.data(), bk.data(),
          bv.data(), bout.data(), blse.data(), bg.data(), dq.data(),
          dk.data(), dv.data());
    });
  }
  SetParallelThreadCount(prev_threads);

  // End-to-end S=32 reverse diffusion on the quick METR-LA preset, fused
  // vs reference routed through the runtime toggle.
  Scale scale;
  data::ImputationTask task =
      MakeTask(Preset::kMetrLa, MissingPattern::kPoint, scale, 7);
  Rng model_rng(13);
  core::PristiModel model(PristiConfigFor(task, scale),
                          task.dataset.graph.adjacency, model_rng);
  eval::DiffusionRunOptions options = DiffusionOptionsFor(task, scale);
  diffusion::NoiseSchedule schedule = diffusion::NoiseSchedule::Quadratic(
      options.diffusion_steps, options.beta_1, options.beta_end);
  data::Sample window = data::ExtractWindow(task, 0);
  const int64_t samples = 32;
  auto run_sampler = [&](bool fused) {
    bool prev = kn::SetFusedAttentionEnabled(fused);
    diffusion::ImputeOptions impute = options.impute;
    impute.num_samples = samples;
    Rng sample_rng(29);
    Stopwatch watch;
    diffusion::ImputationResult result =
        diffusion::ImputeWindow(&model, schedule, window, impute, sample_rng);
    double seconds = watch.ElapsedSeconds();
    kn::SetFusedAttentionEnabled(prev);
    EXPECT_EQ(result.samples.size(), static_cast<size_t>(samples));
    return static_cast<double>(samples) / seconds;
  };
  run_sampler(true);  // warm-up
  double fused_sps = run_sampler(true);
  double reference_sps = run_sampler(false);

  pristi::testing::TestTempDir tmp;
  std::string json_path =
      ArtifactPath("BENCH_attention.json", tmp.path().string());
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  ASSERT_NE(json, nullptr);
  std::fprintf(
      json,
      "{\n"
      "  \"shape\": {\"batch\": %lld, \"s\": %lld, \"head_dim\": %lld},\n"
      "  \"threads\": %lld,\n"
      "  \"fused_gflops\": %.3f,\n"
      "  \"reference_gflops\": %.3f,\n"
      "  \"fused_speedup\": %.3f,\n"
      "  \"fused_peak_live_bytes\": %llu,\n"
      "  \"reference_peak_live_bytes\": %llu,\n"
      "  \"scores_bytes_not_materialized\": %llu,\n"
      "  \"sampler_s32_fused_sps\": %.3f,\n"
      "  \"sampler_s32_reference_sps\": %.3f,\n"
      "  \"sampler_s32_speedup\": %.3f,\n"
      "  \"backward_threads\": 1,\n"
      "  \"backward\": [\n",
      static_cast<long long>(batch), static_cast<long long>(s),
      static_cast<long long>(dh),
      static_cast<long long>(ParallelThreadCount()), fused_gflops,
      reference_gflops, fused_sec > 0 ? reference_sec / fused_sec : 0.0,
      static_cast<unsigned long long>(fused_peak),
      static_cast<unsigned long long>(reference_peak),
      static_cast<unsigned long long>(scores_bytes), fused_sps,
      reference_sps, reference_sps > 0 ? fused_sps / reference_sps : 0.0);
  for (size_t i = 0; i < std::size(backward); ++i) {
    const BackwardTiming& b = backward[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"batch\": %lld, \"s_q\": %lld, "
                 "\"s_k\": %lld, \"head_dim\": %lld, \"dispatched_ms\": "
                 "%.3f, \"scalar_ms\": %.3f, \"speedup\": %.3f}%s\n",
                 b.name, static_cast<long long>(b.batch),
                 static_cast<long long>(b.s_q), static_cast<long long>(b.s_k),
                 static_cast<long long>(b.dh), b.dispatched_ms, b.scalar_ms,
                 b.dispatched_ms > 0 ? b.scalar_ms / b.dispatched_ms : 0.0,
                 i + 1 < std::size(backward) ? "," : "");
    std::printf(
        "attention bwd %s (%lld, %lld, %lld, %lld), 1 thread: dispatched "
        "%.3f ms, scalar %.3f ms\n",
        b.name, static_cast<long long>(b.batch),
        static_cast<long long>(b.s_q), static_cast<long long>(b.s_k),
        static_cast<long long>(b.dh), b.dispatched_ms, b.scalar_ms);
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf(
      "attention fwd (batch=%lld, s=%lld, dh=%lld): fused %.1f GF/s, "
      "reference %.1f GF/s (%.2fx); peak live bytes %llu vs %llu\n"
      "sampler S=32: fused %.2f sps, reference %.2f sps\n",
      static_cast<long long>(batch), static_cast<long long>(s),
      static_cast<long long>(dh), fused_gflops, reference_gflops,
      reference_sec / fused_sec, static_cast<unsigned long long>(fused_peak),
      static_cast<unsigned long long>(reference_peak), fused_sps,
      reference_sps);
  std::printf("BENCH json: %s\n", json_path.c_str());
}

}  // namespace
}  // namespace pristi::bench
