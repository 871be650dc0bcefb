#ifndef PRISTI_DATA_DATASET_H_
#define PRISTI_DATA_DATASET_H_

// Synthetic spatiotemporal datasets standing in for AQI-36, METR-LA and
// PEMS-BAY (the real sensor feeds are not available in this environment;
// see DESIGN.md §1 for why the substitution preserves the experiments).
//
// The generator plants exactly the structure the imputation task is about:
//   * temporal structure  — daily seasonality (one or two harmonics) plus a
//     smooth autoregressive latent process;
//   * spatial structure   — the latent process diffuses over the sensor
//     graph each step, so geographically close sensors are correlated;
//   * node heterogeneity  — per-node offsets, amplitudes and phases (phases
//     tied to location, so nearby sensors peak together);
//   * observation noise and (dataset-dependent) positivity clamping;
//   * original missing    — a realistic observed-mask with point and block
//     holes at each dataset's documented original-missing rate.

#include <string>

#include "common/rng.h"
#include "graph/adjacency.h"
#include "tensor/tensor.h"

namespace pristi::data {

using tensor::Tensor;

// Generator knobs; see the preset functions for tuned instances.
struct SyntheticConfig {
  std::string name = "synthetic";
  int64_t num_nodes = 24;
  int64_t num_steps = 1440;
  int64_t steps_per_day = 24;     // period of the planted seasonality
  double base_mean = 50.0;        // mean level across nodes
  double base_std = 10.0;         // node-to-node spread of the level
  double season_amp_mean = 15.0;  // mean seasonal amplitude
  double season_amp_std = 5.0;
  double second_harmonic = 0.0;   // relative weight of a 2x-frequency term
                                  // (traffic has two rush hours)
  double ar_coeff = 0.92;         // latent AR(1) persistence
  double spatial_mix = 0.5;       // share of the latent state diffused over
                                  // the graph each step (0 = independent)
  double latent_noise = 1.0;      // innovation std of the latent process
  double latent_scale = 6.0;      // how strongly the latent moves the signal
  // Quadratic response to the latent: creates right-skewed episode peaks
  // (PM2.5-like). Linear interpolation systematically undershoots such
  // peaks; learned imputers can capture them.
  double latent_quadratic = 0.0;
  double obs_noise = 1.0;         // i.i.d. observation noise std
  bool clamp_nonnegative = false; // air-quality style positivity
  // Original (non-evaluable) missingness of the raw feed.
  double original_missing_rate = 0.05;
  // Fraction of original missing that arrives as multi-step outages.
  double original_block_share = 0.5;
  int64_t original_block_min_len = 4;
  int64_t original_block_max_len = 24;
  // Sensor-graph shape knobs, forwarded to graph::BuildSensorGraph: how
  // many spatial clusters the sensors scatter into, and the Gaussian-kernel
  // cutoff below which an edge weight is zeroed. The kernel's sigma adapts
  // to the distance distribution, so the threshold (not the cluster count)
  // is the lever that actually prunes cross-cluster edges; the large-graph
  // preset raises it to keep adjacency nnz ~ O(n).
  int64_t graph_clusters = 4;
  double graph_kernel_threshold = 0.1;
};

// A complete synthetic feed: ground truth everywhere plus the observed mask
// of the simulated raw data. Values are stored time-major: (T, N).
struct SpatioTemporalDataset {
  std::string name;
  int64_t num_nodes = 0;
  int64_t num_steps = 0;
  int64_t steps_per_day = 0;
  Tensor values;         // (T, N) ground truth
  Tensor observed_mask;  // (T, N) 1 = the raw feed contains this value
  graph::SensorGraph graph;
};

// Generates a dataset from a config; deterministic given `rng`'s seed.
SpatioTemporalDataset GenerateSynthetic(const SyntheticConfig& config,
                                        Rng& rng);

// ---- Presets mirroring the paper's three datasets -------------------------
// Sizes default to CI-friendly reductions; pass the paper-scale values
// (36/8760, 207/..., 325/...) for full-shape runs.
SyntheticConfig Aqi36LikeConfig(int64_t num_nodes = 36,
                                int64_t num_steps = 1440);
SyntheticConfig MetrLaLikeConfig(int64_t num_nodes = 48,
                                 int64_t num_steps = 2016);
SyntheticConfig PemsBayLikeConfig(int64_t num_nodes = 64,
                                  int64_t num_steps = 2016);
// Large sparse sensor network (no real-data counterpart; a scaling target):
// >= 1000 nodes scattered over ~n/32 clusters, so the thresholded kernel
// adjacency stays sparse. Short by default — the point is node count, not
// sequence length.
SyntheticConfig LargeGraphLikeConfig(int64_t num_nodes = 1024,
                                     int64_t num_steps = 384);

}  // namespace pristi::data

#endif  // PRISTI_DATA_DATASET_H_
