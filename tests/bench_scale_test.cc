// Pins the bench harness's full-scale configuration to the paper's Table II
// hyperparameters, so a refactor cannot silently drift the "paper-shaped"
// mode away from the published setup.
//
// Also hosts the sampler throughput sweep (SamplerBench.*): batched vs
// sequential reverse diffusion over S in {1, 8, 32} on the 20-node quick
// METR-LA preset, emitting BENCH_sampler.json. The sweep records numbers
// but asserts nothing about speed, and its ctest registration carries the
// `bench` label so gating runs can exclude it with `ctest -LE bench`.

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "bench_common.h"
#include "common/env.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "tensor/kernels/kernels.h"
#include "tensor/storage.h"
#include "test_tmpdir.h"

namespace pristi::bench {
namespace {

class ScaleTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("PRISTI_SCALE"); }
};

TEST_F(ScaleTest, QuickIsDefault) {
  unsetenv("PRISTI_SCALE");
  Scale scale = ResolveScale();
  EXPECT_FALSE(scale.full);
  // Quick mode must stay CI-sized.
  EXPECT_LE(scale.aqi_nodes, 36);
  EXPECT_LE(scale.diffusion_epochs, 60);
}

TEST_F(ScaleTest, FullMatchesPaperTable2) {
  setenv("PRISTI_SCALE", "full", 1);
  Scale scale = ResolveScale();
  ASSERT_TRUE(scale.full);
  // Dataset sizes (Table in Sec. IV-A): 36 / 207 / 325 sensors.
  EXPECT_EQ(scale.aqi_nodes, 36);
  EXPECT_EQ(scale.metr_nodes, 207);
  EXPECT_EQ(scale.pems_nodes, 325);
  // Table II hyperparameters.
  EXPECT_EQ(scale.channels, 64);        // channel size d
  EXPECT_EQ(scale.heads, 8);            // attention heads
  EXPECT_EQ(scale.layers, 4);           // noise estimation layers
  EXPECT_EQ(scale.diffusion_steps, 50); // T for the traffic datasets
  EXPECT_EQ(scale.impute_samples, 100); // 100 generated samples
  EXPECT_EQ(scale.crps_samples, 100);
  EXPECT_EQ(scale.window_len, 24);      // L for METR-LA / PEMS-BAY
}

TEST_F(ScaleTest, FullDisablesQuickAdaptations) {
  setenv("PRISTI_SCALE", "full", 1);
  Scale scale = ResolveScale();
  data::ImputationTask task =
      MakeTask(Preset::kAqi36, data::MissingPattern::kPoint,
               [] {
                 Scale tiny;  // build a small dataset; options still "full"
                 return tiny;
               }(),
               1);
  eval::DiffusionRunOptions options = DiffusionOptionsFor(task, scale);
  // Paper-exact training and sampling: uniform t, ancestral sampler.
  EXPECT_EQ(options.train.high_t_bias, 0.0);
  EXPECT_EQ(options.impute.sampler, diffusion::SamplerKind::kDdpm);
  EXPECT_EQ(options.impute.num_inference_steps, 0);
  // Paper schedule bounds (Table II): beta_1 = 1e-4, beta_T = 0.2.
  EXPECT_FLOAT_EQ(options.beta_1, 1e-4f);
  EXPECT_FLOAT_EQ(options.beta_end, 0.2f);
  // Paper LR schedule: decay at 75% and 90% of epochs.
  ASSERT_EQ(options.train.lr_milestone_fracs.size(), 2u);
  EXPECT_DOUBLE_EQ(options.train.lr_milestone_fracs[0], 0.75);
  EXPECT_DOUBLE_EQ(options.train.lr_milestone_fracs[1], 0.9);
}

TEST_F(ScaleTest, PristiConfigUsesPaperEmbeddingDims) {
  setenv("PRISTI_SCALE", "full", 1);
  Scale scale = ResolveScale();
  Scale tiny;
  data::ImputationTask task =
      MakeTask(Preset::kAqi36, data::MissingPattern::kPoint, tiny, 2);
  core::PristiConfig config = PristiConfigFor(task, scale);
  EXPECT_EQ(config.diffusion_emb_dim, 128);  // Table II / Sec. III-B3
  EXPECT_EQ(config.temporal_emb_dim, 128);   // U_tem in R^{L x 128}
  EXPECT_EQ(config.node_emb_dim, 16);        // U_spa in R^{N x 16}
}

TEST(SamplerBench, SamplesPerSecondSweep) {
  Scale scale;  // quick defaults: the 20-node METR-LA preset
  data::ImputationTask task =
      MakeTask(Preset::kMetrLa, MissingPattern::kPoint, scale, 7);
  Rng rng(13);
  core::PristiModel model(PristiConfigFor(task, scale),
                          task.dataset.graph.adjacency, rng);
  eval::DiffusionRunOptions options = DiffusionOptionsFor(task, scale);
  diffusion::NoiseSchedule schedule = diffusion::NoiseSchedule::Quadratic(
      options.diffusion_steps, options.beta_1, options.beta_end);
  data::Sample window = data::ExtractWindow(task, 0);

  auto run = [&](int64_t samples, bool sequential) {
    diffusion::ImputeOptions impute = options.impute;
    impute.num_samples = samples;
    impute.sequential_fallback = sequential;
    Rng sample_rng(29);
    Stopwatch watch;
    diffusion::ImputationResult result =
        diffusion::ImputeWindow(&model, schedule, window, impute, sample_rng);
    double seconds = watch.ElapsedSeconds();
    EXPECT_EQ(result.samples.size(), static_cast<size_t>(samples));
    return seconds;
  };
  run(1, false);  // warm-up: spawn pool workers, touch allocator pools

  // The JSON artifact goes to PRISTI_BENCH_DIR when a collector sets it;
  // otherwise to a per-test temp dir (never the CWD, which may be the
  // source tree).
  pristi::testing::TestTempDir tmp;
  std::string json_path =
      ArtifactPath("BENCH_sampler.json", tmp.path().string());
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  ASSERT_NE(json, nullptr);
  std::fprintf(json,
               "{\n"
               "  \"preset\": \"metr-la-quick\",\n"
               "  \"nodes\": %lld,\n"
               "  \"window_len\": %lld,\n"
               "  \"diffusion_steps\": %lld,\n"
               "  \"threads\": %lld,\n"
               "  \"sweep\": [",
               static_cast<long long>(scale.metr_nodes),
               static_cast<long long>(scale.window_len),
               static_cast<long long>(options.diffusion_steps),
               static_cast<long long>(ParallelThreadCount()));
  std::printf("sampler throughput (%lld nodes, %lld steps, %lld threads)\n",
              static_cast<long long>(scale.metr_nodes),
              static_cast<long long>(options.diffusion_steps),
              static_cast<long long>(ParallelThreadCount()));
  std::printf("%8s %14s %14s %10s\n", "samples", "batched sps", "seq sps",
              "speedup");
  bool first = true;
  for (int64_t samples : {int64_t{1}, int64_t{8}, int64_t{32}}) {
    // Buffer-pool accounting for the batched run. `alloc_requests_per_step`
    // is what every reverse step would hit the heap with if nothing were
    // recycled (the pre-pool behaviour); `heap_allocs_per_step` is what
    // actually reaches the heap with the pool warm.
    tensor::AllocStats alloc_before = tensor::GetAllocStats();
    tensor::kernels::KernelStats kernel_before =
        tensor::kernels::GetKernelStats();
    double batched_sec = run(samples, /*sequential=*/false);
    tensor::AllocStats alloc_after = tensor::GetAllocStats();
    tensor::kernels::KernelStats kernel_after =
        tensor::kernels::GetKernelStats();
    double sequential_sec = run(samples, /*sequential=*/true);
    double batched_sps = static_cast<double>(samples) / batched_sec;
    double sequential_sps = static_cast<double>(samples) / sequential_sec;
    double speedup = sequential_sec / batched_sec;
    EXPECT_GT(batched_sps, 0.0);
    EXPECT_GT(sequential_sps, 0.0);
    double steps = static_cast<double>(options.diffusion_steps);
    unsigned long long alloc_requests =
        alloc_after.requests - alloc_before.requests;
    unsigned long long heap_allocs =
        alloc_after.heap_allocs - alloc_before.heap_allocs;
    double hit_rate =
        alloc_requests > 0
            ? static_cast<double>(alloc_requests - heap_allocs) /
                  static_cast<double>(alloc_requests)
            : 0.0;
    // GEMM kernel-layer accounting for the same batched run: sustained
    // GFLOP/s across the whole phase, and how often the pack cache served a
    // weight panel instead of repacking it.
    unsigned long long gemm_calls =
        kernel_after.gemm_calls - kernel_before.gemm_calls;
    unsigned long long gemm_flops = kernel_after.flops - kernel_before.flops;
    unsigned long long pack_lookups =
        (kernel_after.pack_cache_hits - kernel_before.pack_cache_hits) +
        (kernel_after.pack_cache_misses - kernel_before.pack_cache_misses);
    double pack_hit_rate =
        pack_lookups > 0
            ? static_cast<double>(kernel_after.pack_cache_hits -
                                  kernel_before.pack_cache_hits) /
                  static_cast<double>(pack_lookups)
            : 0.0;
    double gflops = batched_sec > 0.0
                        ? static_cast<double>(gemm_flops) / batched_sec / 1e9
                        : 0.0;
    std::fprintf(json,
                 "%s\n    {\"samples\": %lld, \"batched_sec\": %.6f, "
                 "\"batched_samples_per_sec\": %.3f, "
                 "\"sequential_sec\": %.6f, "
                 "\"sequential_samples_per_sec\": %.3f, "
                 "\"speedup\": %.3f, "
                 "\"alloc_requests\": %llu, "
                 "\"heap_allocs\": %llu, "
                 "\"pool_hit_rate\": %.4f, "
                 "\"alloc_requests_per_step\": %.1f, "
                 "\"heap_allocs_per_step\": %.1f, "
                 "\"peak_live_mb\": %.1f, "
                 "\"gemm_calls\": %llu, "
                 "\"gemm_gflops_per_sec\": %.3f, "
                 "\"pack_cache_hit_rate\": %.4f}",
                 first ? "" : ",", static_cast<long long>(samples),
                 batched_sec, batched_sps, sequential_sec, sequential_sps,
                 speedup, alloc_requests, heap_allocs, hit_rate,
                 static_cast<double>(alloc_requests) / steps,
                 static_cast<double>(heap_allocs) / steps,
                 static_cast<double>(alloc_after.peak_live_bytes) /
                     (1024.0 * 1024.0),
                 gemm_calls, gflops, pack_hit_rate);
    std::printf("%8lld %14.2f %14.2f %9.2fx   pool hit %.1f%% "
                "(%llu reqs, %llu heap)   gemm %.2f GF/s, pack hit %.1f%%\n",
                static_cast<long long>(samples), batched_sps, sequential_sps,
                speedup, 100.0 * hit_rate, alloc_requests, heap_allocs,
                gflops, 100.0 * pack_hit_rate);
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("[json written to %s]\n", json_path.c_str());
}

}  // namespace
}  // namespace pristi::bench
