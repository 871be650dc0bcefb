#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "common/logging.h"

namespace pristi::data {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Plants original missingness: a block share arrives as per-sensor outages,
// the rest as isolated points, targeting `rate` overall.
Tensor MakeObservedMask(const SyntheticConfig& config, Rng& rng) {
  int64_t t_steps = config.num_steps;
  int64_t n = config.num_nodes;
  Tensor mask = Tensor::Ones({t_steps, n});
  if (config.original_missing_rate <= 0.0) return mask;

  int64_t total = t_steps * n;
  int64_t current = 0;  // tracked incrementally as entries flip to missing

  // Blocks first.
  int64_t block_budget = static_cast<int64_t>(
      total * config.original_missing_rate * config.original_block_share);
  while (current < block_budget) {
    int64_t node = rng.UniformInt(0, n - 1);
    int64_t len = rng.UniformInt(config.original_block_min_len,
                                 config.original_block_max_len);
    int64_t start = rng.UniformInt(0, std::max<int64_t>(t_steps - len, 0));
    for (int64_t t = start; t < std::min(start + len, t_steps); ++t) {
      if (mask.at({t, node}) > 0.5f) {
        mask.at({t, node}) = 0.0f;
        ++current;
      }
    }
  }
  // Then points to reach the target rate.
  int64_t target = static_cast<int64_t>(total * config.original_missing_rate);
  // Expected-value filling: each still-observed entry drops with the
  // probability that closes the gap.
  double point_prob =
      static_cast<double>(target - current) /
      std::max<int64_t>(total - current, 1);
  if (point_prob > 0) {
    for (int64_t i = 0; i < total; ++i) {
      if (mask[i] > 0.5f && rng.Bernoulli(point_prob)) mask[i] = 0.0f;
    }
  }
  return mask;
}

}  // namespace

Status ValidateSyntheticConfig(const SyntheticConfig& config) {
  if (config.num_nodes < 2 || config.num_steps < 3 ||
      config.steps_per_day < 2) {
    return Status::Error(
        ErrorCode::kInvalidRequest,
        "a synthetic dataset needs >= 2 nodes, >= 3 steps and a period of "
        ">= 2 steps, got " + std::to_string(config.num_nodes) + " nodes, " +
            std::to_string(config.num_steps) + " steps, period " +
            std::to_string(config.steps_per_day));
  }
  return Status::Ok();
}

SpatioTemporalDataset GenerateSynthetic(const SyntheticConfig& config,
                                        Rng& rng) {
  CHECK_GT(config.num_nodes, 1);
  CHECK_GT(config.num_steps, 2);
  CHECK_GT(config.steps_per_day, 1);

  SpatioTemporalDataset dataset;
  dataset.name = config.name;
  dataset.num_nodes = config.num_nodes;
  dataset.num_steps = config.num_steps;
  dataset.steps_per_day = config.steps_per_day;
  dataset.graph =
      graph::BuildSensorGraph(config.num_nodes, rng, config.graph_clusters,
                              config.graph_kernel_threshold);

  int64_t n = config.num_nodes;
  int64_t t_steps = config.num_steps;
  Tensor transition = graph::TransitionMatrix(dataset.graph.adjacency);

  // Per-node statics. Phase follows location so that spatial neighbours
  // peak together — this is what makes geography informative for imputation.
  std::vector<double> base(n), amp(n), phase(n);
  for (int64_t i = 0; i < n; ++i) {
    base[i] = config.base_mean + rng.Normal(0, config.base_std);
    amp[i] = std::max(0.0, config.season_amp_mean +
                                rng.Normal(0, config.season_amp_std));
    double px = dataset.graph.coords.at({i, 0});
    double py = dataset.graph.coords.at({i, 1});
    phase[i] = kTwoPi * 0.35 * (px + py) + rng.Normal(0, 0.15);
  }

  // Latent graph-diffusion AR(1) process.
  std::vector<double> z(n, 0.0), z_next(n, 0.0);
  dataset.values = Tensor(tensor::Shape{t_steps, n});
  for (int64_t t = 0; t < t_steps; ++t) {
    // z_next = ar * ((1 - mix) z + mix * T z) + noise
    for (int64_t i = 0; i < n; ++i) {
      double diffused = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        float w = transition.at({i, j});
        if (w != 0.0f) diffused += w * z[j];
      }
      z_next[i] = config.ar_coeff * ((1.0 - config.spatial_mix) * z[i] +
                                     config.spatial_mix * diffused) +
                  rng.Normal(0, config.latent_noise);
    }
    std::swap(z, z_next);

    double day_pos = static_cast<double>(t % config.steps_per_day) /
                     config.steps_per_day;
    for (int64_t i = 0; i < n; ++i) {
      double season = std::sin(kTwoPi * day_pos + phase[i]);
      if (config.second_harmonic > 0.0) {
        season += config.second_harmonic *
                  std::sin(2.0 * kTwoPi * day_pos + 2.0 * phase[i]);
      }
      double value = base[i] + amp[i] * season +
                     config.latent_scale * z[i] +
                     config.latent_quadratic * z[i] * z[i] +
                     rng.Normal(0, config.obs_noise);
      if (config.clamp_nonnegative) value = std::max(value, 0.0);
      dataset.values.at({t, i}) = static_cast<float>(value);
    }
  }

  dataset.observed_mask = MakeObservedMask(config, rng);
  return dataset;
}

SyntheticConfig Aqi36LikeConfig(int64_t num_nodes, int64_t num_steps) {
  SyntheticConfig config;
  config.name = "AQI-36-like";
  config.num_nodes = num_nodes;
  config.num_steps = num_steps;
  config.steps_per_day = 24;  // hourly sampling
  config.base_mean = 60.0;    // PM2.5-like level
  config.base_std = 15.0;
  config.season_amp_mean = 20.0;
  config.season_amp_std = 8.0;
  config.second_harmonic = 0.0;
  config.ar_coeff = 0.95;       // pollution episodes persist
  config.spatial_mix = 0.6;     // strong regional coherence
  config.latent_noise = 1.2;
  config.latent_scale = 10.0;
  config.latent_quadratic = 2.0;  // right-skewed pollution episodes
  config.obs_noise = 2.0;
  config.clamp_nonnegative = true;
  config.original_missing_rate = 0.1324;  // paper: 13.24%
  config.original_block_share = 0.7;      // AQI missing is mostly outages
  config.original_block_min_len = 6;
  config.original_block_max_len = 48;
  return config;
}

SyntheticConfig MetrLaLikeConfig(int64_t num_nodes, int64_t num_steps) {
  SyntheticConfig config;
  config.name = "METR-LA-like";
  config.num_nodes = num_nodes;
  config.num_steps = num_steps;
  config.steps_per_day = 288;  // 5-minute sampling
  config.base_mean = 58.0;     // mph free-flow-ish
  config.base_std = 6.0;
  config.season_amp_mean = 10.0;  // rush-hour swing
  config.season_amp_std = 3.0;
  config.second_harmonic = 0.6;   // two rush hours per day
  config.ar_coeff = 0.9;
  config.spatial_mix = 0.5;
  config.latent_noise = 0.8;
  config.latent_scale = 5.0;
  config.obs_noise = 1.5;
  config.clamp_nonnegative = true;
  config.original_missing_rate = 0.081;  // paper: 8.10%
  config.original_block_share = 0.5;
  config.original_block_min_len = 6;
  config.original_block_max_len = 36;
  return config;
}

SyntheticConfig LargeGraphLikeConfig(int64_t num_nodes, int64_t num_steps) {
  SyntheticConfig config = Aqi36LikeConfig(num_nodes, num_steps);
  config.name = "LARGE-sparse-like";
  // One cluster per ~32 sensors plus an aggressive kernel cutoff: the
  // adaptive-sigma kernel gives cross-cluster pairs weights around
  // exp(-1) ~ 0.37, so a 0.5 threshold prunes them and adjacency nnz grows
  // ~ linearly in n instead of n^2 (and GenerateSynthetic's latent
  // diffusion stays O(T * nnz)).
  config.graph_clusters = std::max<int64_t>(num_nodes / 32, 8);
  config.graph_kernel_threshold = 0.5;
  // Short feeds with lighter outage structure: runtime should scale with
  // the node axis, which is what this preset exists to exercise.
  config.original_block_max_len = 24;
  return config;
}

SyntheticConfig PemsBayLikeConfig(int64_t num_nodes, int64_t num_steps) {
  SyntheticConfig config = MetrLaLikeConfig(num_nodes, num_steps);
  config.name = "PEMS-BAY-like";
  config.base_mean = 62.0;
  config.base_std = 4.0;
  config.season_amp_mean = 8.0;
  config.latent_scale = 4.0;
  config.obs_noise = 1.0;
  config.original_missing_rate = 0.0002;  // paper: 0.02%
  config.original_block_share = 0.0;
  return config;
}

}  // namespace pristi::data
