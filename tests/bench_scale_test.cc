// Pins the bench harness's full-scale configuration to the paper's Table II
// hyperparameters, so a refactor cannot silently drift the "paper-shaped"
// mode away from the published setup.

#include <cstdlib>

#include <gtest/gtest.h>

#include "bench_common.h"

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

}  // namespace
}  // namespace pristi::bench
