// pristi_serve — long-running imputation daemon over serve::ServeSession.
//
//   pristi_serve --data=data.bin --pattern=failure --model=pristi.ckpt
//       [--samples=15 --sampler=ddim --steps=10]
//       [--max-batch=8 --max-wait-ms=5 --queue-cap=64]
//
// Reads line commands from stdin (a scriptable stand-in for an RPC front
// end) and answers on stdout:
//
//   impute <start> <seed> [sampler [steps]]
//                           submit the (N, L) window starting at step
//                           <start>; responses are collected with `wait`.
//                           Back-to-back submits coalesce into one model
//                           call (watch the batch= field). The optional
//                           sampler (ddpm|ddim|plms) and kept-step count
//                           override the session defaults per request; an
//                           unknown sampler name is rejected as an invalid
//                           request without submitting.
//   wait                    block until every outstanding request resolves,
//                           print one line per request in submission order
//   reload <path>           hot-swap weights from a checkpoint; a damaged
//                           file is reported and the old weights keep
//                           serving
//   stats                   session counters
//   quit                    drain and exit (EOF does the same)
//
// Batching knobs default from the PRISTI_SERVE_* environment registry
// (src/common/env.h); flags override.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/flags.h"
#include "common/logging.h"
#include "data/io.h"
#include "data/windows.h"
#include "diffusion/schedule.h"
#include "pristi/pristi_model.h"
#include "serialize/checkpoint.h"
#include "serve/session.h"

namespace pristi {
namespace {

data::MissingPattern PatternFromFlag(const std::string& name) {
  if (name == "point") return data::MissingPattern::kPoint;
  if (name == "block") return data::MissingPattern::kBlock;
  if (name == "failure" || name == "simulated_failure") {
    return data::MissingPattern::kSimulatedFailure;
  }
  PRISTI_LOG_FATAL << "unknown --pattern " << name
                   << " (point|block|failure)";
  return data::MissingPattern::kPoint;
}

struct Outstanding {
  int64_t id = 0;
  int64_t start = 0;
  uint64_t seed = 0;
  std::future<serve::ImputeResponse> future;
};

void PrintResponse(const Outstanding& entry, serve::ImputeResponse response) {
  if (!response.status.ok()) {
    std::printf("request %lld: ERROR %s%s\n",
                static_cast<long long>(entry.id),
                response.status.ToString().c_str(),
                response.status.retryable() ? " (retryable)" : "");
    return;
  }
  const tensor::Tensor& median = response.result.median;
  double mean = 0.0;
  const float* m = median.data();
  for (int64_t i = 0; i < median.numel(); ++i) mean += m[i];
  mean /= static_cast<double>(median.numel());
  std::printf(
      "request %lld: ok start=%lld seed=%llu batch=%lld queue_us=%lld "
      "total_us=%lld median_mean=%.4f\n",
      static_cast<long long>(entry.id), static_cast<long long>(entry.start),
      static_cast<unsigned long long>(entry.seed),
      static_cast<long long>(response.batch_size),
      static_cast<long long>(response.queue_nanos / 1000),
      static_cast<long long>(response.total_nanos / 1000), mean);
}

void PrintStats(const serve::ServeSession& session) {
  serve::ServeSession::Stats stats = session.stats();
  std::printf(
      "admitted=%lld completed=%lld batches=%lld max_batch=%lld "
      "rejected_full=%lld rejected_invalid=%lld cancelled=%lld "
      "reloads_applied=%lld reloads_rejected=%lld\n",
      static_cast<long long>(stats.admitted),
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.batches),
      static_cast<long long>(stats.max_batch_observed),
      static_cast<long long>(stats.rejected_full),
      static_cast<long long>(stats.rejected_invalid),
      static_cast<long long>(stats.cancelled),
      static_cast<long long>(stats.reloads_applied),
      static_cast<long long>(stats.reloads_rejected));
}

int Main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));

  std::string data_path = flags.GetString("data");
  data::SpatioTemporalDataset dataset;
  if (!data_path.empty()) {
    dataset = data::ReadBinaryDataset(data_path);
    CHECK_GT(dataset.num_steps, 0) << "failed to load " << data_path;
  } else {
    PRISTI_LOG_WARNING << "--data not given; generating a default dataset";
    dataset = data::GenerateSynthetic(data::Aqi36LikeConfig(16, 720), rng);
  }
  data::TaskOptions task_options;
  task_options.window_len = flags.GetInt("window", 16);
  task_options.stride = flags.GetInt("stride", 4);
  data::ImputationTask task =
      data::MakeTask(std::move(dataset),
                     PatternFromFlag(flags.GetString("pattern", "point")),
                     task_options, rng);

  core::PristiConfig model_config;
  model_config.num_nodes = task.dataset.num_nodes;
  model_config.window_len = task.window_len;
  model_config.channels = flags.GetInt("channels", 16);
  model_config.heads = flags.GetInt("heads", 4);
  model_config.layers = flags.GetInt("layers", 2);
  model_config.virtual_nodes = flags.GetInt(
      "virtual-nodes", std::min<int64_t>(8, task.dataset.num_nodes / 2));
  model_config.diffusion_emb_dim = flags.GetInt("diff-emb", 32);
  model_config.temporal_emb_dim = flags.GetInt("temporal-emb", 32);
  model_config.node_emb_dim = flags.GetInt("node-emb", 16);
  model_config.adaptive_rank = flags.GetInt("adaptive-rank", 6);
  tensor::Tensor adjacency = task.dataset.graph.adjacency;

  auto model = std::make_shared<core::PristiModel>(model_config, adjacency,
                                                   rng);
  std::string ckpt = flags.GetString("model");
  if (!ckpt.empty()) {
    Status status = serialize::LoadModuleCheckpointFile(*model, ckpt);
    CHECK(status.ok()) << "cannot load " << ckpt << ": " << status.ToString();
    std::printf("loaded checkpoint %s\n", ckpt.c_str());
  } else {
    PRISTI_LOG_WARNING << "--model not given; serving an untrained model";
  }

  serve::ServeConfig config = serve::ServeConfig::FromEnv();
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.max_batch = flags.GetInt("max-batch", config.max_batch);
  config.max_wait_nanos =
      flags.GetInt("max-wait-ms", config.max_wait_nanos / 1'000'000) *
      1'000'000;
  config.queue_capacity = flags.GetInt("queue-cap", config.queue_capacity);
  config.impute.num_samples = flags.GetInt("samples", 15);
  // --sampler/--steps override the PRISTI_SERVE_SAMPLER / PRISTI_SERVE_STEPS
  // env defaults; the built-in default (ddim, 10 of 30) is the old
  // stride-3 DDIM.
  std::string env_sampler = GetEnvOr("PRISTI_SERVE_SAMPLER", "");
  std::string sampler_flag =
      flags.GetString("sampler", env_sampler.empty() ? "ddim" : "");
  if (!sampler_flag.empty()) {
    Status sampler_status =
        serve::ParseSamplerName(sampler_flag, &config.impute.sampler);
    CHECK(sampler_status.ok()) << "--sampler: " << sampler_status.ToString();
  }
  config.impute.num_inference_steps =
      flags.GetInt("steps", GetEnvIntOr("PRISTI_SERVE_STEPS", 10));

  auto schedule = diffusion::NoiseSchedule::Quadratic(
      flags.GetInt("steps-diffusion", 30),
      static_cast<float>(flags.GetDouble("beta-1", 1e-4)),
      static_cast<float>(flags.GetDouble("beta-end", 0.2)));

  // The staging factory builds a blank same-architecture model for
  // ReloadCheckpoint to restore into; the seed is irrelevant because the
  // load overwrites every parameter.
  serve::ModelFactory factory = [model_config, adjacency]() {
    Rng staging_rng(1);
    auto staging = std::make_shared<core::PristiModel>(model_config,
                                                       adjacency,
                                                       staging_rng);
    return serve::ModelSlot{staging, staging.get()};
  };

  serve::ServeSession session(serve::ModelSlot{model, model.get()},
                              std::move(factory), schedule, config);
  for (const std::string& key : flags.UnqueriedKeys()) {
    PRISTI_LOG_WARNING << "unused flag --" << key;
  }
  std::printf(
      "serving %s: N=%lld L=%lld max_batch=%lld max_wait_ms=%lld "
      "queue_cap=%lld\n",
      task.dataset.name.c_str(),
      static_cast<long long>(task.dataset.num_nodes),
      static_cast<long long>(task.window_len),
      static_cast<long long>(config.max_batch),
      static_cast<long long>(config.max_wait_nanos / 1'000'000),
      static_cast<long long>(config.queue_capacity));
  std::fflush(stdout);

  std::vector<Outstanding> outstanding;
  int64_t next_id = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream tokens(line);
    std::string command;
    tokens >> command;
    if (command.empty()) continue;
    if (command == "quit") break;
    if (command == "impute") {
      int64_t start = 0;
      uint64_t seed = 0;
      tokens >> start >> seed;
      std::string sampler_name;
      int64_t request_steps = -1;
      bool has_steps = false;
      if (tokens >> sampler_name) {
        has_steps = static_cast<bool>(tokens >> request_steps);
      }
      diffusion::SamplerKind request_sampler;
      if (!sampler_name.empty()) {
        Status sampler_status =
            serve::ParseSamplerName(sampler_name, &request_sampler);
        if (!sampler_status.ok()) {
          std::printf("impute: REJECTED %s\n",
                      sampler_status.ToString().c_str());
          std::fflush(stdout);
          continue;
        }
      }
      if (start < 0 || start + task.window_len > task.dataset.num_steps) {
        std::printf("impute: start %lld out of range [0, %lld]\n",
                    static_cast<long long>(start),
                    static_cast<long long>(task.dataset.num_steps -
                                           task.window_len));
      } else {
        serve::ImputeRequest request;
        request.window = data::ExtractWindow(task, start);
        request.seed = seed;
        if (!sampler_name.empty()) request.sampler = request_sampler;
        if (has_steps) request.num_inference_steps = request_steps;
        Outstanding entry;
        entry.id = next_id++;
        entry.start = start;
        entry.seed = seed;
        entry.future = session.Submit(std::move(request));
        std::printf("submitted request %lld\n",
                    static_cast<long long>(entry.id));
        outstanding.push_back(std::move(entry));
      }
    } else if (command == "wait") {
      for (Outstanding& entry : outstanding) {
        PrintResponse(entry, entry.future.get());
      }
      outstanding.clear();
    } else if (command == "reload") {
      std::string path;
      tokens >> path;
      Status status = session.ReloadCheckpoint(path);
      if (status.ok()) {
        std::printf("reload staged: %s\n", path.c_str());
      } else {
        std::printf("reload REJECTED (old model keeps serving): %s\n",
                    status.ToString().c_str());
      }
    } else if (command == "stats") {
      PrintStats(session);
    } else {
      std::printf("unknown command: %s (impute|wait|reload|stats|quit)\n",
                  command.c_str());
    }
    std::fflush(stdout);
  }

  session.Shutdown(serve::ServeSession::DrainMode::kDrain);
  for (Outstanding& entry : outstanding) {
    PrintResponse(entry, entry.future.get());
  }
  PrintStats(session);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace pristi

int main(int argc, char** argv) { return pristi::Main(argc, argv); }
