#include "bench_common.h"

#include <algorithm>

namespace pristi::bench {

const char* PresetName(Preset preset) {
  switch (preset) {
    case Preset::kAqi36:
      return "AQI-36-like";
    case Preset::kMetrLa:
      return "METR-LA-like";
    case Preset::kPemsBay:
      return "PEMS-BAY-like";
  }
  return "unknown";
}

Status ScaleNamed(const std::string& name, Scale* out) {
  Scale scale;
  if (name == "full") {
    scale.full = true;
    scale.aqi_nodes = 36;
    scale.aqi_steps = 8760;
    scale.metr_nodes = 207;
    scale.metr_steps = 8064;
    scale.pems_nodes = 325;
    scale.pems_steps = 8064;
    scale.window_len = 24;
    scale.train_stride = 8;
    scale.channels = 64;
    scale.heads = 8;
    scale.layers = 4;
    scale.virtual_nodes = 64;
    scale.diffusion_steps = 50;
    scale.diffusion_epochs = 200;
    scale.impute_samples = 100;
    scale.crps_samples = 100;
    scale.rnn_epochs = 100;
    scale.vae_epochs = 100;
  } else if (name != "quick") {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "unknown --scale " + name + " (quick|full)");
  }
  *out = scale;
  return Status::Ok();
}

data::ImputationTask MakeTask(Preset preset, MissingPattern pattern,
                              const Scale& scale, uint64_t seed) {
  Rng rng(seed);
  data::SyntheticConfig config;
  switch (preset) {
    case Preset::kAqi36:
      config = data::Aqi36LikeConfig(scale.aqi_nodes, scale.aqi_steps);
      break;
    case Preset::kMetrLa:
      config = data::MetrLaLikeConfig(scale.metr_nodes, scale.metr_steps);
      break;
    case Preset::kPemsBay:
      config = data::PemsBayLikeConfig(scale.pems_nodes, scale.pems_steps);
      break;
  }
  auto dataset = data::GenerateSynthetic(config, rng);
  data::TaskOptions options;
  options.window_len = scale.window_len;
  options.stride = scale.train_stride;
  return data::MakeTask(std::move(dataset), pattern, options, rng);
}

core::PristiConfig PristiConfigFor(const data::ImputationTask& task,
                                   const Scale& scale) {
  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = scale.channels;
  config.heads = scale.heads;
  config.layers = scale.layers;
  config.virtual_nodes =
      std::min<int64_t>(scale.virtual_nodes, task.dataset.num_nodes / 2);
  config.diffusion_emb_dim = scale.full ? 128 : 32;
  config.temporal_emb_dim = scale.full ? 128 : 32;
  config.node_emb_dim = 16;
  config.adaptive_rank = scale.full ? 10 : 6;
  return config;
}

baselines::CsdiConfig CsdiConfigFor(const data::ImputationTask& task,
                                    const Scale& scale) {
  baselines::CsdiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = scale.channels;
  config.heads = scale.heads;
  config.layers = scale.layers;
  config.diffusion_emb_dim = scale.full ? 128 : 32;
  config.temporal_emb_dim = scale.full ? 128 : 32;
  config.node_emb_dim = 16;
  return config;
}

eval::DiffusionRunOptions DiffusionOptionsFor(
    const data::ImputationTask& task, const Scale& scale) {
  eval::DiffusionRunOptions options;
  options.diffusion_steps = scale.diffusion_steps;
  options.train.epochs = scale.diffusion_epochs;
  options.train.batch_size = 8;
  options.train.lr = 1e-3f;
  options.train.mask_strategy = data::TrainingMaskStrategy(task.pattern);
  options.impute.num_samples = scale.impute_samples;
  if (!scale.full) {
    // Reduced-scale adaptations (see DESIGN.md): bias training toward the
    // informative high-t steps, and sample with few-step DDIM — same model,
    // ~3x cheaper and lower-variance medians. T/3 kept steps is exactly the
    // old stride-3 subset. Full scale uses the paper's uniform-t training
    // and ancestral sampling.
    options.train.high_t_bias = 0.5;
    options.impute.sampler = diffusion::SamplerKind::kDdim;
    options.impute.num_inference_steps = scale.diffusion_steps / 3;
  }
  return options;
}

baselines::RecurrentOptions RecurrentOptionsFor(const Scale& scale) {
  baselines::RecurrentOptions options;
  options.hidden = scale.full ? 64 : 24;
  options.epochs = scale.rnn_epochs;
  return options;
}

baselines::VaeOptions VaeOptionsFor(const Scale& scale) {
  baselines::VaeOptions options;
  options.hidden = scale.full ? 64 : 24;
  options.latent = scale.full ? 16 : 8;
  options.epochs = scale.vae_epochs;
  return options;
}

std::vector<std::unique_ptr<Imputer>> MakeAllMethods(
    const data::ImputationTask& task, const Scale& scale, Rng& rng) {
  std::vector<std::unique_ptr<Imputer>> methods;
  methods.push_back(std::make_unique<baselines::MeanImputer>());
  methods.push_back(std::make_unique<baselines::DailyAverageImputer>());
  methods.push_back(std::make_unique<baselines::KnnImputer>());
  methods.push_back(std::make_unique<baselines::LinearInterpImputer>());
  methods.push_back(std::make_unique<baselines::KalmanImputer>());
  methods.push_back(std::make_unique<baselines::MiceImputer>());
  methods.push_back(std::make_unique<baselines::VarImputer>());
  methods.push_back(std::make_unique<baselines::TrmfImputer>());
  methods.push_back(std::make_unique<baselines::BatfImputer>());
  methods.push_back(std::make_unique<baselines::VrinImputer>(
      task.dataset.num_nodes, task.window_len, VaeOptionsFor(scale), rng));
  methods.push_back(std::make_unique<baselines::GpVaeImputer>(
      task.dataset.num_nodes, VaeOptionsFor(scale), rng));
  methods.push_back(std::make_unique<baselines::RgainImputer>(
      task.dataset.num_nodes, RecurrentOptionsFor(scale), rng));
  methods.push_back(std::make_unique<baselines::BritsImputer>(
      task.dataset.num_nodes, RecurrentOptionsFor(scale), rng));
  methods.push_back(std::make_unique<baselines::GrinImputer>(
      task.dataset.num_nodes, task.dataset.graph.adjacency,
      RecurrentOptionsFor(scale), rng));
  methods.push_back(eval::MakeCsdiImputer(CsdiConfigFor(task, scale),
                                          DiffusionOptionsFor(task, scale),
                                          rng));
  methods.push_back(eval::MakePristiImputer(
      PristiConfigFor(task, scale), task.dataset.graph.adjacency,
      DiffusionOptionsFor(task, scale), rng));
  return methods;
}

}  // namespace pristi::bench
