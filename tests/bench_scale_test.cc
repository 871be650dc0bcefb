// Pins the bench harness's scales: quick stays CI-sized and full matches
// the paper's Table II hyperparameters, so a refactor cannot silently drift
// the "paper-shaped" mode away from the published setup. Scales are read
// through ScaleNamed, the parser behind `pristi_paper --scale`.

#include <iterator>

#include <gtest/gtest.h>

#include "bench_common.h"

namespace pristi::bench {
namespace {

Scale Named(const std::string& name) {
  Scale scale;
  Status status = ScaleNamed(name, &scale);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return scale;
}

TEST(ScaleTest, QuickIsDefault) {
  Scale scale = Named("quick");
  EXPECT_FALSE(scale.full);
  // A default-constructed Scale is the quick scale.
  EXPECT_EQ(scale.aqi_nodes, Scale{}.aqi_nodes);
  EXPECT_EQ(scale.diffusion_epochs, Scale{}.diffusion_epochs);
  // Quick mode must stay CI-sized.
  EXPECT_LE(scale.aqi_nodes, 36);
  EXPECT_LE(scale.diffusion_epochs, 60);
}

TEST(ScaleTest, UnknownNameIsATypedError) {
  for (const char* name : {"Full", "mid", "", "quick "}) {
    Scale scale;
    scale.channels = 7;
    Status status = ScaleNamed(name, &scale);
    EXPECT_EQ(status.code(), ErrorCode::kInvalidRequest) << name;
    EXPECT_NE(status.message().find("quick|full"), std::string::npos);
    EXPECT_EQ(scale.channels, 7) << "a failed parse must leave *scale alone";
  }
}

TEST(ScaleTest, FullMatchesPaperTable2) {
  Scale scale = Named("full");
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

TEST(ScaleTest, FullDisablesQuickAdaptations) {
  Scale scale = Named("full");
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
  // Paper LR schedule: decay by 10x at 75% and 90% of epochs.
  ASSERT_EQ(std::size(diffusion::kLrMilestoneFracs), 2u);
  EXPECT_DOUBLE_EQ(diffusion::kLrMilestoneFracs[0], 0.75);
  EXPECT_DOUBLE_EQ(diffusion::kLrMilestoneFracs[1], 0.9);
  EXPECT_FLOAT_EQ(diffusion::kLrDecay, 0.1f);
}

TEST(ScaleTest, PristiConfigUsesPaperEmbeddingDims) {
  Scale scale = Named("full");
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
