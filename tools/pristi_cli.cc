// pristi_cli — command-line driver for the library, the entry point a
// downstream user scripts against.
//
//   pristi_cli generate --preset=aqi --nodes=36 --gen-steps=2160 --out=data.bin
//   pristi_cli train    --data=data.bin --pattern=failure --epochs=60
//       ... --model-out=pristi.ckpt
//   pristi_cli impute   --data=data.bin --pattern=failure
//       ... --model=pristi.ckpt --out=imputed.csv
//   pristi_cli evaluate --data=data.bin --pattern=point --method=pristi
//   pristi_cli serve    --data=data.bin --pattern=failure
//       ... --model=pristi.ckpt [--max-batch=8 --max-wait-ms=5 --queue-cap=64]
//
// All subcommands accept --seed, --window, --stride; train/impute/serve
// share the model knobs (--channels --heads --layers --virtual-nodes
// --steps-diffusion ...), and impute/evaluate/serve the sampler knobs
// (--sampler --steps --samples). Each of these flags is read by exactly one
// function below, so a model trained by `train` always loads into the model
// `impute` or `serve` builds from the same flags.
// `evaluate --method=` also accepts the classic baselines (mean, da, knn,
// lin-itp, kf, mice, var, trmf, batf, stmvl, brits, grin, csdi).
//
// `serve` keeps the model resident and reads line commands from stdin (a
// scriptable stand-in for an RPC front end), answering on stdout:
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
// A bad input — an unknown name, a value the library would reject (see
// diffusion::ValidateTrainOptions, ValidateScheduleSteps,
// serve::ValidateServeConfig), a file that cannot be loaded, an output that
// cannot be written — is reported on stderr and exits 1.

#include <algorithm>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/csdi.h"
#include "baselines/factorization.h"
#include "baselines/kalman.h"
#include "baselines/regression.h"
#include "baselines/rnn.h"
#include "baselines/simple.h"
#include "baselines/stmvl.h"
#include "common/flags.h"
#include "common/logging.h"
#include "data/io.h"
#include "data/windows.h"
#include "eval/harness.h"
#include "pristi/pristi_model.h"
#include "serialize/checkpoint.h"
#include "serialize/format.h"
#include "serve/session.h"

namespace pristi {
namespace {

// Prints `status` on stderr; returns the exit status of a bad input.
int Fail(const Status& status) {
  std::fprintf(stderr, "pristi_cli: %s\n", status.ToString().c_str());
  return 1;
}

void WarnUnusedFlags(const Flags& flags) {
  for (const std::string& key : flags.UnqueriedKeys()) {
    PRISTI_LOG_WARNING << "unused flag --" << key;
  }
}

Status InvalidFlag(const std::string& message) {
  return Status::Error(ErrorCode::kInvalidRequest, message);
}

Status WriteFailed(const std::string& flag, const std::string& path) {
  return Status::Error(ErrorCode::kIoError,
                       "cannot write --" + flag + " " + path);
}

// Prefixes a load failure with the flag and path it came from.
Status LoadFailed(const std::string& flag, const std::string& path,
                  const Status& status) {
  return Status::Error(status.code(), "cannot load --" + flag + " " + path +
                                          ": " + status.message());
}

// Prefixes a checkpoint save failure with the flag and path it went to.
Status SaveFailed(const std::string& flag, const std::string& path,
                  const Status& status) {
  return Status::Error(status.code(), "cannot write --" + flag + " " + path +
                                          ": " + status.message());
}

// The seeded generator every subcommand draws from.
Rng SeededRng(const Flags& flags) {
  return Rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
}

// --preset, --nodes and the series length --gen-steps as a generator
// config; shared by `generate` and the on-the-fly fallback of every
// data-consuming subcommand. The large preset exists to exercise the node
// axis; the classic three default to quick CI-scale shapes.
Status GeneratorConfig(const Flags& flags, data::SyntheticConfig* config) {
  std::string preset = flags.GetString("preset", "aqi");
  bool large = preset == "large";
  int64_t nodes = flags.GetInt("nodes", large ? 1024 : 16);
  int64_t steps = flags.GetInt("gen-steps", large ? 384 : 720);
  if (preset == "aqi") {
    *config = data::Aqi36LikeConfig(nodes, steps);
  } else if (preset == "metr") {
    *config = data::MetrLaLikeConfig(nodes, steps);
  } else if (preset == "pems") {
    *config = data::PemsBayLikeConfig(nodes, steps);
  } else if (large) {
    *config = data::LargeGraphLikeConfig(nodes, steps);
  } else {
    return InvalidFlag("unknown --preset " + preset +
                       " (aqi|metr|pems|large)");
  }
  return data::ValidateSyntheticConfig(*config);
}

Status LoadOrGenerate(const Flags& flags, Rng& rng,
                      data::SpatioTemporalDataset* dataset) {
  std::string path = flags.GetString("data");
  if (!path.empty()) {
    Status status = data::ReadBinaryDataset(path, dataset);
    return status.ok() ? status : LoadFailed("data", path, status);
  }
  // No --data: generate in place, --gen-steps long.
  data::SyntheticConfig config;
  Status status = GeneratorConfig(flags, &config);
  if (!status.ok()) return status;
  PRISTI_LOG_WARNING << "--data not given; generating a '" << config.name
                     << "' dataset (" << config.num_nodes << " nodes x "
                     << config.num_steps << " steps)";
  *dataset = data::GenerateSynthetic(config, rng);
  return Status::Ok();
}

// The model flags, read for both architectures: PriSTI uses all of them,
// CSDI the shared --channels, --heads and --layers.
core::PristiConfig ModelFlags(const Flags& flags,
                              const data::ImputationTask& task) {
  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = flags.GetInt("channels", 16);
  config.heads = flags.GetInt("heads", 4);
  config.layers = flags.GetInt("layers", 2);
  config.virtual_nodes = flags.GetInt(
      "virtual-nodes", std::min<int64_t>(8, task.dataset.num_nodes / 2));
  config.diffusion_emb_dim = flags.GetInt("diff-emb", 32);
  config.temporal_emb_dim = flags.GetInt("temporal-emb", 32);
  config.node_emb_dim = flags.GetInt("node-emb", 16);
  config.adaptive_rank = flags.GetInt("adaptive-rank", 6);
  return config;
}

Status ModelConfig(const Flags& flags, const data::ImputationTask& task,
                   core::PristiConfig* out) {
  *out = ModelFlags(flags, task);
  return core::ValidatePristiConfig(*out);
}

// The noise-schedule length (--steps-diffusion) a model is trained and
// sampled on.
Status ScheduleOptions(const Flags& flags,
                       eval::DiffusionRunOptions* options) {
  options->diffusion_steps = flags.GetInt("steps-diffusion", 30);
  return diffusion::ValidateScheduleSteps(options->diffusion_steps);
}

// What a trained model is sampled with: the schedule length it was trained
// on and the reverse-process sampler (--sampler=ddpm|ddim|plms, --steps=K
// kept reverse steps, 0 = full schedule). The default, ddim keeping 10 of
// 30 steps, is a stride-3 DDIM.
Status InferenceOptions(const Flags& flags,
                        eval::DiffusionRunOptions* options) {
  Status status = ScheduleOptions(flags, options);
  if (!status.ok()) return status;
  diffusion::ImputeOptions& impute = options->impute;
  impute.num_samples = flags.GetInt("samples", 15);
  if (impute.num_samples < 1) {
    return InvalidFlag("--samples must be >= 1, got " +
                       std::to_string(impute.num_samples));
  }
  status = diffusion::ParseSamplerKind(flags.GetString("sampler", "ddim"),
                                       &impute.sampler);
  if (!status.ok()) return status;
  impute.num_inference_steps = flags.GetInt("steps", 10);
  if (impute.num_inference_steps < 0) {
    return InvalidFlag("--steps must be >= 0, got " +
                       std::to_string(impute.num_inference_steps));
  }
  return Status::Ok();
}

// How a model is trained: the epoch, batch, optimizer, shard and checkpoint
// flags, and the re-masking strategy the task's pattern calls for. Reads no
// schedule or sampler flag; the caller reads whichever of those it uses.
Status TrainingOptions(const Flags& flags, const data::ImputationTask& task,
                       diffusion::TrainOptions* options) {
  options->epochs = flags.GetInt("epochs", 40);
  options->batch_size = flags.GetInt("batch", 8);
  options->lr = static_cast<float>(flags.GetDouble("lr", 2e-3));
  options->high_t_bias = flags.GetDouble("high-t-bias", 0.5);
  // Shard-parallel training (diffusion/sharded_train.h): --shards=K, 0 =
  // one shard per pool worker. K changes no bit.
  options->num_shards = flags.GetInt("shards", 0);
  options->checkpoint_dir = flags.GetString("checkpoint-dir");
  options->checkpoint_every = flags.GetInt("checkpoint-every", 1);
  options->checkpoint_keep_last = flags.GetInt("keep-last", 3);
  options->resume_from = flags.GetString("resume");
  options->mask_strategy = data::TrainingMaskStrategy(task.pattern);
  return diffusion::ValidateTrainOptions(*options);
}

// The noise schedule a model is trained and sampled on.
diffusion::NoiseSchedule Schedule(const eval::DiffusionRunOptions& options) {
  return diffusion::NoiseSchedule::Quadratic(
      options.diffusion_steps, options.beta_1, options.beta_end);
}

// Loads or generates the dataset and splits it into a task.
Status MakeTaskFromFlags(const Flags& flags, Rng& rng,
                         data::ImputationTask* task) {
  std::string pattern_name = flags.GetString("pattern", "point");
  data::MissingPattern pattern;
  if (!data::ParseMissingPattern(pattern_name, &pattern)) {
    return InvalidFlag("unknown --pattern " + pattern_name +
                       " (point|block|failure)");
  }
  data::SpatioTemporalDataset dataset;
  Status status = LoadOrGenerate(flags, rng, &dataset);
  if (!status.ok()) return status;
  data::TaskOptions options;
  options.window_len = flags.GetInt("window", 16);
  options.stride = flags.GetInt("stride", 4);
  status = data::ValidateTaskOptions(options, dataset.num_steps);
  if (!status.ok()) return status;
  *task = data::MakeTask(std::move(dataset), pattern, options, rng);
  return Status::Ok();
}

// Builds the model `config` describes and, given --model, restores its
// weights from that checkpoint. Without --model the model stays untrained,
// which `require_checkpoint` turns into an error.
Status BuildModel(const Flags& flags, const core::PristiConfig& config,
                  const data::ImputationTask& task, Rng& rng,
                  bool require_checkpoint,
                  std::shared_ptr<core::PristiModel>* model) {
  std::string path = flags.GetString("model");
  if (path.empty() && require_checkpoint) {
    return InvalidFlag("--model=<checkpoint> is required");
  }
  *model = std::make_shared<core::PristiModel>(
      config, task.dataset.graph.adjacency, rng);
  if (path.empty()) {
    PRISTI_LOG_WARNING << "--model not given; using an untrained model "
                          "(use `train` first)";
    return Status::Ok();
  }
  Status status = serialize::LoadModuleCheckpointFile(**model, path);
  if (!status.ok()) return LoadFailed("model", path, status);
  std::printf("loaded checkpoint %s\n", path.c_str());
  return Status::Ok();
}

int CmdGenerate(const Flags& flags) {
  Rng rng = SeededRng(flags);
  // --steps means kept reverse steps everywhere else; the series length has
  // one name in every subcommand.
  if (flags.Has("steps")) {
    return Fail(InvalidFlag(
        "generate takes the series length as --gen-steps, not --steps"));
  }
  data::SyntheticConfig config;
  Status status = GeneratorConfig(flags, &config);
  if (!status.ok()) return Fail(status);
  auto dataset = data::GenerateSynthetic(config, rng);
  std::string out = flags.GetString("out", "dataset.bin");
  if (!data::WriteBinaryDataset(dataset, out)) {
    return Fail(WriteFailed("out", out));
  }
  std::printf("wrote %s: %lld nodes x %lld steps (%s)\n", out.c_str(),
              static_cast<long long>(dataset.num_nodes),
              static_cast<long long>(dataset.num_steps),
              dataset.name.c_str());
  std::string csv = flags.GetString("csv");
  if (!csv.empty()) {
    if (!data::WriteCsvDataset(dataset, csv, flags.GetString("coords"))) {
      return Fail(WriteFailed("csv", csv));
    }
    std::printf("wrote %s\n", csv.c_str());
  }
  return 0;
}

int CmdTrain(const Flags& flags) {
  Rng rng = SeededRng(flags);
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  // `train` samples nothing, so a sampler flag stays unread and is reported
  // as unused.
  eval::DiffusionRunOptions options;
  status = ScheduleOptions(flags, &options);
  if (!status.ok()) return Fail(status);
  status = TrainingOptions(flags, task, &options.train);
  if (!status.ok()) return Fail(status);
  // Fail now, not after the last epoch, if the checkpoint cannot be saved.
  std::string out = flags.GetString("model-out", "pristi.ckpt");
  status = serialize::ProbeFileAtomic(out);
  if (!status.ok()) return Fail(SaveFailed("model-out", out, status));
  options.train.on_epoch = [](int64_t epoch, double loss) {
    if (epoch % 5 == 0) {
      std::printf("epoch %3lld  loss %.4f\n", static_cast<long long>(epoch),
                  loss);
      std::fflush(stdout);
    }
  };
  auto model = std::make_shared<core::PristiModel>(
      config, task.dataset.graph.adjacency, rng);
  std::printf("training PriSTI (%lld parameters)...\n",
              static_cast<long long>(model->ParameterCount()));
  std::vector<double> losses;
  status = diffusion::TrainDiffusionModel(model.get(), Schedule(options),
                                          task, options.train, rng, &losses);
  if (!status.ok()) return Fail(status);
  status = serialize::SaveModuleCheckpointFile(*model, out);
  if (!status.ok()) return Fail(SaveFailed("model-out", out, status));
  std::printf("saved checkpoint to %s\n", out.c_str());
  return 0;
}

int CmdImpute(const Flags& flags) {
  Rng rng = SeededRng(flags);
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  eval::DiffusionRunOptions options;
  status = InferenceOptions(flags, &options);
  if (!status.ok()) return Fail(status);
  std::shared_ptr<core::PristiModel> model;
  status = BuildModel(flags, config, task, rng, /*require_checkpoint=*/false,
                      &model);
  if (!status.ok()) return Fail(status);
  eval::DiffusionImputerAdapter adapter("PriSTI", model, options);
  tensor::Tensor completed = eval::ImputeSeries(&adapter, task, rng);
  // Write the completed series (no missing cells) as CSV.
  data::SpatioTemporalDataset out_dataset = task.dataset;
  out_dataset.values = completed;
  out_dataset.observed_mask =
      tensor::Tensor::Ones(completed.shape());
  std::string out = flags.GetString("out", "imputed.csv");
  if (!data::WriteCsvDataset(out_dataset, out)) {
    return Fail(WriteFailed("out", out));
  }
  std::printf("wrote completed series to %s\n", out.c_str());
  return 0;
}

// `save`: writes a freshly initialized (untrained) model in the versioned
// checkpoint format — a quick way to materialize a checkpoint for a given
// architecture/seed without a training run.
int CmdSave(const Flags& flags) {
  Rng rng = SeededRng(flags);
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  core::PristiModel model(config, task.dataset.graph.adjacency, rng);
  std::string out = flags.GetString("out", "pristi.ckpt");
  status = serialize::SaveModuleCheckpointFile(model, out);
  if (!status.ok()) return Fail(SaveFailed("out", out, status));
  std::printf("saved %lld parameters to %s\n",
              static_cast<long long>(model.ParameterCount()), out.c_str());
  return 0;
}

// `load`: validates that the --model checkpoint restores into the model
// architecture described by the flags; with --out it re-saves it in the
// current format.
int CmdLoad(const Flags& flags) {
  Rng rng = SeededRng(flags);
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  std::shared_ptr<core::PristiModel> model;
  status = BuildModel(flags, config, task, rng, /*require_checkpoint=*/true,
                      &model);
  if (!status.ok()) return Fail(status);
  std::printf("restored %lld parameters\n",
              static_cast<long long>(model->ParameterCount()));
  std::string out = flags.GetString("out");
  if (!out.empty()) {
    status = serialize::SaveModuleCheckpointFile(*model, out);
    if (!status.ok()) return Fail(SaveFailed("out", out, status));
    std::printf("re-saved in format v%u to %s\n", serialize::kFormatVersion,
                out.c_str());
  }
  return 0;
}

// `inspect`: dumps the container header and full record table (offsets,
// sizes, types, per-record checksum verdicts, tensor shapes). Parses as far
// as the structure allows so a damaged file still shows its intact prefix.
int CmdInspect(const Flags& flags) {
  std::string path = flags.GetString("file");
  if (path.empty()) {
    std::printf("inspect: --file=<checkpoint> is required\n");
    return 2;
  }
  serialize::CheckpointView view;
  Status status =
      serialize::ParseCheckpointFile(path, &view, /*keep_corrupt=*/true);
  if (view.records().empty() && !status.ok()) {
    std::printf("%s: %s\n", path.c_str(), status.ToString().c_str());
    return 1;
  }
  std::printf("%s: checkpoint format v%u, %zu records\n", path.c_str(),
              view.format_version(), view.records().size());
  std::printf("%10s %10s  %-8s %-4s name\n", "offset", "size", "type", "crc");
  for (const serialize::Record& record : view.records()) {
    std::string detail;
    if (record.tag == serialize::RecordTag::kTensor && record.crc_ok) {
      tensor::Tensor t;
      if (serialize::DecodeTensorPayload(record.payload, &t).ok()) {
        detail = "  shape " + tensor::ShapeToString(t.shape());
      }
    }
    std::printf("%10llu %10llu  %-8s %-4s %s%s\n",
                static_cast<unsigned long long>(record.offset),
                static_cast<unsigned long long>(record.byte_size),
                serialize::RecordTagName(record.tag),
                record.crc_ok ? "ok" : "BAD", record.name.c_str(),
                detail.c_str());
  }
  if (!status.ok()) {
    std::printf("damage detected: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

std::unique_ptr<baselines::Imputer> MakeBaseline(
    const std::string& method, const Flags& flags,
    const data::ImputationTask& task, Rng& rng) {
  baselines::RecurrentOptions rnn_options;
  rnn_options.epochs = flags.GetInt("epochs", 15);
  if (method == "mean") return std::make_unique<baselines::MeanImputer>();
  if (method == "da") {
    return std::make_unique<baselines::DailyAverageImputer>();
  }
  if (method == "knn") return std::make_unique<baselines::KnnImputer>();
  if (method == "lin-itp") {
    return std::make_unique<baselines::LinearInterpImputer>();
  }
  if (method == "kf") return std::make_unique<baselines::KalmanImputer>();
  if (method == "mice") return std::make_unique<baselines::MiceImputer>();
  if (method == "var") return std::make_unique<baselines::VarImputer>();
  if (method == "trmf") return std::make_unique<baselines::TrmfImputer>();
  if (method == "batf") return std::make_unique<baselines::BatfImputer>();
  if (method == "stmvl") return std::make_unique<baselines::StmvlImputer>();
  if (method == "brits") {
    return std::make_unique<baselines::BritsImputer>(task.dataset.num_nodes,
                                                     rnn_options, rng);
  }
  if (method == "grin") {
    return std::make_unique<baselines::GrinImputer>(
        task.dataset.num_nodes, task.dataset.graph.adjacency, rnn_options,
        rng);
  }
  return nullptr;
}

int CmdEvaluate(const Flags& flags) {
  Rng rng = SeededRng(flags);
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  std::string method = flags.GetString("method", "pristi");
  std::unique_ptr<baselines::Imputer> imputer;
  if (method == "pristi" || method == "csdi") {
    eval::DiffusionRunOptions options;
    status = InferenceOptions(flags, &options);
    if (!status.ok()) return Fail(status);
    status = TrainingOptions(flags, task, &options.train);
    if (!status.ok()) return Fail(status);
    if (method == "pristi") {
      core::PristiConfig config;
      status = ModelConfig(flags, task, &config);
      if (!status.ok()) return Fail(status);
      imputer = eval::MakePristiImputer(config, task.dataset.graph.adjacency,
                                        options, rng);
    } else {
      core::PristiConfig model = ModelFlags(flags, task);
      baselines::CsdiConfig config;
      config.num_nodes = model.num_nodes;
      config.window_len = model.window_len;
      config.channels = model.channels;
      config.heads = model.heads;
      config.layers = model.layers;
      status = baselines::ValidateCsdiConfig(config);
      if (!status.ok()) return Fail(status);
      imputer = eval::MakeCsdiImputer(config, options, rng);
    }
  } else {
    imputer = MakeBaseline(method, flags, task, rng);
    if (imputer == nullptr) {
      return Fail(InvalidFlag("unknown --method " + method +
                              " (pristi|csdi|mean|da|knn|lin-itp|kf|mice|"
                              "var|trmf|batf|stmvl|brits|grin)"));
    }
  }
  eval::EvaluateOptions eval_options;
  eval_options.crps_samples = flags.GetInt("crps-samples", 0);
  eval::MethodResult result =
      eval::EvaluateImputer(imputer.get(), task, rng, eval_options);
  std::printf("%s on %s/%s: MAE %.4f  MSE %.4f", result.method.c_str(),
              task.dataset.name.c_str(),
              data::MissingPatternName(task.pattern), result.mae,
              result.mse);
  if (eval_options.crps_samples > 0) {
    std::printf("  CRPS %.4f", result.crps);
  }
  std::printf("  (fit %.1fs, impute %.1fs)\n", result.fit_seconds,
              result.impute_seconds);
  return 0;
}

// ---- serve -----------------------------------------------------------------

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

// Handles one `impute <start> <seed> [sampler [steps]]` line: submits the
// window, or prints why it was not submitted.
void SubmitImpute(std::istringstream& tokens,
                  const data::ImputationTask& task,
                  serve::ServeSession* session, int64_t* next_id,
                  std::vector<Outstanding>* outstanding) {
  int64_t start = 0;
  uint64_t seed = 0;
  tokens >> start >> seed;
  serve::ImputeRequest request;
  std::string sampler_name;
  if (tokens >> sampler_name) {
    diffusion::SamplerKind sampler;
    Status status = diffusion::ParseSamplerKind(sampler_name, &sampler);
    if (!status.ok()) {
      std::printf("impute: REJECTED %s\n", status.ToString().c_str());
      return;
    }
    request.sampler = sampler;
    int64_t steps = 0;
    if (tokens >> steps) request.num_inference_steps = steps;
  }
  // Compared as start > last valid start: `start + window_len` would
  // overflow for a start near INT64_MAX.
  int64_t last_start = task.dataset.num_steps - task.window_len;
  if (start < 0 || start > last_start) {
    std::printf("impute: start %lld out of range [0, %lld]\n",
                static_cast<long long>(start),
                static_cast<long long>(last_start));
    return;
  }
  request.window = data::ExtractWindow(task, start);
  request.seed = seed;
  Outstanding entry;
  entry.id = (*next_id)++;
  entry.start = start;
  entry.seed = seed;
  entry.future = session->Submit(std::move(request));
  std::printf("submitted request %lld\n", static_cast<long long>(entry.id));
  outstanding->push_back(std::move(entry));
}

// `serve`: the model stays resident in a serve::ServeSession, driven by the
// stdin protocol described at the top of this file.
int CmdServe(const Flags& flags) {
  Rng rng = SeededRng(flags);
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig model_config;
  status = ModelConfig(flags, task, &model_config);
  if (!status.ok()) return Fail(status);
  eval::DiffusionRunOptions options;
  status = InferenceOptions(flags, &options);
  if (!status.ok()) return Fail(status);
  serve::ServeConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.max_batch = flags.GetInt("max-batch", config.max_batch);
  config.max_wait_nanos =
      flags.GetInt("max-wait-ms", config.max_wait_nanos / 1'000'000) *
      1'000'000;
  config.queue_capacity = flags.GetInt("queue-cap", config.queue_capacity);
  config.impute = options.impute;
  status = serve::ValidateServeConfig(config);
  if (!status.ok()) return Fail(status);
  std::shared_ptr<core::PristiModel> model;
  status = BuildModel(flags, model_config, task, rng,
                      /*require_checkpoint=*/false, &model);
  if (!status.ok()) return Fail(status);

  // The staging factory builds a blank same-architecture model for
  // ReloadCheckpoint to restore into; the seed is irrelevant because the
  // load overwrites every parameter.
  tensor::Tensor adjacency = task.dataset.graph.adjacency;
  serve::ModelFactory factory = [model_config, adjacency]() {
    Rng staging_rng(1);
    auto staging = std::make_shared<core::PristiModel>(
        model_config, adjacency, staging_rng);
    return serve::ModelSlot{staging, staging.get()};
  };
  serve::ServeSession session(serve::ModelSlot{model, model.get()},
                              std::move(factory), Schedule(options), config);
  // Every flag has been read by now, so a typo is reported before the
  // daemon starts rather than when it exits.
  WarnUnusedFlags(flags);
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
      SubmitImpute(tokens, task, &session, &next_id, &outstanding);
    } else if (command == "wait") {
      for (Outstanding& entry : outstanding) {
        PrintResponse(entry, entry.future.get());
      }
      outstanding.clear();
    } else if (command == "reload") {
      std::string path;
      tokens >> path;
      status = session.ReloadCheckpoint(path);
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

int Usage() {
  std::printf(
      "usage: pristi_cli "
      "<generate|train|impute|evaluate|serve|save|load|inspect> "
      "[--flags]\n"
      "  generate --preset=aqi|metr|pems|large --nodes=N --gen-steps=T "
      "--out=F.bin\n"
      "  train    --data=F.bin --pattern=point|block|failure --epochs=E\n"
      "           --model-out=F.ckpt [--shards=K] [--checkpoint-dir=D]\n"
      "           [--checkpoint-every=K] [--keep-last=K]\n"
      "           [--resume=D/ckpt-N.ckpt]\n"
      "           (without --data: --preset --nodes --gen-steps generate\n"
      "           in place; --shards=K sets the shard count, default one\n"
      "           per worker thread; every K trains the same bits)\n"
      "  impute   --data=F.bin --pattern=... --model=F.ckpt --out=F.csv\n"
      "           [--sampler=ddpm|ddim|plms] [--steps=K]  (K kept reverse\n"
      "           steps, 0 = full schedule; default ddim, 10)\n"
      "  evaluate --data=F.bin --pattern=... --method=pristi|csdi|mean|...\n"
      "  serve    --data=F.bin --pattern=... --model=F.ckpt [sampler flags]\n"
      "           [--max-batch=8] [--max-wait-ms=5] [--queue-cap=64]\n"
      "           then stdin: impute <start> <seed> [sampler [steps]] |\n"
      "           wait | reload <path> | stats | quit\n"
      "  save     --out=F.ckpt [model flags]    write a fresh model\n"
      "  load     --model=F.ckpt [--out=G.ckpt] validate / re-save\n"
      "  inspect  --file=F.ckpt                 dump the record table\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags = Flags::Parse(argc - 1, argv + 1);
  int status;
  if (command == "generate") {
    status = CmdGenerate(flags);
  } else if (command == "train") {
    status = CmdTrain(flags);
  } else if (command == "impute") {
    status = CmdImpute(flags);
  } else if (command == "evaluate") {
    status = CmdEvaluate(flags);
  } else if (command == "save") {
    status = CmdSave(flags);
  } else if (command == "load") {
    status = CmdLoad(flags);
  } else if (command == "inspect") {
    status = CmdInspect(flags);
  } else if (command == "serve") {
    return CmdServe(flags);  // warns of unused flags before it serves
  } else {
    return Usage();
  }
  // A failed command stops reading flags early, so only a finished one
  // can tell an unused flag from an unread one.
  if (status == 0) WarnUnusedFlags(flags);
  return status;
}

}  // namespace
}  // namespace pristi

int main(int argc, char** argv) { return pristi::Main(argc, argv); }
