// bench_train_shards — wall-time of the shard-parallel trainer
// (diffusion/sharded_train.h) at shard counts K in {1, 2, 4, 8}, on two
// presets:
//   * small  — the CI-scale AQI-36-like graph;
//   * large  — the >= 1000-node sparse preset (LargeGraphLikeConfig).
// Reports seconds per training epoch and windows/sec per configuration, and
// cross-checks that every K reproduces the same first-epoch loss (the
// engine's bit-identity contract: K changes scheduling, never numbers).
//
// Emits BENCH_train_shards.json via bench::ArtifactPath (PRISTI_BENCH_DIR
// overrides the default results/ directory). PRISTI_SCALE=full lengthens
// the feeds for steadier timing; quick scale keeps the whole sweep in
// seconds so the bench can ride in the default ctest pass.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/dataset.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "pristi/pristi_model.h"

namespace pristi::bench {
namespace {

struct BenchPreset {
  std::string label;
  data::SyntheticConfig config;
};

struct RowResult {
  std::string preset;
  int64_t nodes = 0;
  int64_t shards = 0;
  int64_t windows = 0;
  double epoch_seconds = 0.0;
  double windows_per_sec = 0.0;
  double first_epoch_loss = 0.0;
  double adjacency_density = 0.0;
};

RowResult RunOne(const BenchPreset& preset, int64_t shards) {
  Rng task_rng(2024);
  auto dataset = data::GenerateSynthetic(preset.config, task_rng);
  const tensor::Tensor& adjacency = dataset.graph.adjacency;
  int64_t nonzeros = 0;
  for (int64_t i = 0; i < adjacency.numel(); ++i) {
    nonzeros += adjacency.data()[i] != 0.0f ? 1 : 0;
  }
  double density = static_cast<double>(nonzeros) /
                   static_cast<double>(adjacency.numel());
  data::ImputationTask task =
      data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                     data::TaskOptions{.window_len = 8, .stride = 8},
                     task_rng);

  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.virtual_nodes = 4;
  config.diffusion_emb_dim = 8;
  config.temporal_emb_dim = 8;
  config.node_emb_dim = 4;
  config.adaptive_rank = 4;
  config.graph_diffusion_steps = 1;
  Rng model_rng(7);
  core::PristiModel model(config, task.dataset.graph.adjacency, model_rng);

  diffusion::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.lr = 1e-3f;
  options.num_shards = shards;
  auto schedule = diffusion::NoiseSchedule::Quadratic(8, 1e-4f, 0.2f);

  Rng train_rng(314159);
  Stopwatch watch;
  std::vector<double> losses =
      diffusion::TrainDiffusionModel(&model, schedule, task, options,
                                     train_rng);
  double seconds = watch.ElapsedSeconds();

  RowResult row;
  row.preset = preset.label;
  row.nodes = task.dataset.num_nodes;
  row.shards = shards;
  row.windows = static_cast<int64_t>(data::ExtractSamples(task, "train").size());
  row.epoch_seconds = seconds;
  row.windows_per_sec =
      seconds > 0 ? static_cast<double>(row.windows) / seconds : 0.0;
  row.first_epoch_loss = losses.empty() ? 0.0 : losses.front();
  row.adjacency_density = density;
  return row;
}

int Run() {
  Scale scale = ResolveScale();
  // Short feeds at quick scale: the sweep's job is the K axis, not epochs.
  int64_t small_steps = scale.full ? 1440 : 192;
  int64_t large_steps = scale.full ? 192 : 48;
  std::vector<BenchPreset> presets;
  presets.push_back({"aqi36-small", data::Aqi36LikeConfig(16, small_steps)});
  presets.push_back({"large", data::LargeGraphLikeConfig(1024, large_steps)});

  std::printf("TrainShards: epoch wall-time vs shard count (%s scale, %lld "
              "threads)\n",
              scale.full ? "full" : "quick",
              static_cast<long long>(ParallelThreadCount()));
  std::printf("%14s %6s %7s %8s %12s %12s %14s\n", "preset", "nodes",
              "shards", "windows", "epoch_sec", "win/sec", "epoch0_loss");

  std::vector<RowResult> rows;
  for (const BenchPreset& preset : presets) {
    double reference_loss = 0.0;
    for (int64_t shards : {1, 2, 4, 8}) {
      RowResult row = RunOne(preset, shards);
      std::printf("%14s %6lld %7lld %8lld %12.3f %12.1f %14.8f\n",
                  row.preset.c_str(), static_cast<long long>(row.nodes),
                  static_cast<long long>(row.shards),
                  static_cast<long long>(row.windows), row.epoch_seconds,
                  row.windows_per_sec, row.first_epoch_loss);
      if (shards == 1) {
        reference_loss = row.first_epoch_loss;
      } else if (row.first_epoch_loss != reference_loss) {
        // The whole point of the engine: K must not reach the numbers.
        std::fprintf(stderr,
                     "FAIL: %s loss at K=%lld (%.17g) != K=1 (%.17g)\n",
                     row.preset.c_str(), static_cast<long long>(shards),
                     row.first_epoch_loss, reference_loss);
        return 1;
      }
      rows.push_back(std::move(row));
    }
  }

  std::string json_path = ArtifactPath("BENCH_train_shards.json", "results");
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"threads\": %lld,\n"
               "  \"scale\": \"%s\",\n"
               "  \"rows\": [",
               static_cast<long long>(ParallelThreadCount()),
               scale.full ? "full" : "quick");
  bool first = true;
  for (const RowResult& row : rows) {
    std::fprintf(json,
                 "%s\n    {\"preset\": \"%s\", \"nodes\": %lld, "
                 "\"adjacency_density\": %.6f, "
                 "\"shards\": %lld, \"windows\": %lld, "
                 "\"epoch_seconds\": %.6f, \"windows_per_sec\": %.3f, "
                 "\"epoch0_loss\": %.17g}",
                 first ? "" : ",", row.preset.c_str(),
                 static_cast<long long>(row.nodes),
                 row.adjacency_density,
                 static_cast<long long>(row.shards),
                 static_cast<long long>(row.windows), row.epoch_seconds,
                 row.windows_per_sec, row.first_epoch_loss);
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("[json written to %s]\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pristi::bench

int main() { return pristi::bench::Run(); }
