// pristi_cli — command-line driver for the library, the entry point a
// downstream user scripts against.
//
//   pristi_cli generate --preset=aqi --nodes=36 --steps=2160 --out=data.bin
//   pristi_cli train    --data=data.bin --pattern=failure --epochs=60
//       ... --model-out=pristi.ckpt
//   pristi_cli impute   --data=data.bin --pattern=failure
//       ... --model=pristi.ckpt --out=imputed.csv
//   pristi_cli evaluate --data=data.bin --pattern=point --method=pristi
//
// All subcommands accept --seed, --window, --stride; train/impute share the
// model knobs (--channels --heads --layers --virtual-nodes --steps-diffusion).
// `evaluate --method=` also accepts the classic baselines (mean, da, knn,
// lin-itp, kf, mice, var, trmf, batf, stmvl, brits, grin, csdi).
//
// A bad input — an unknown name, a value the library would reject (see
// diffusion::ValidateTrainOptions, ValidateScheduleSteps), a file that
// cannot be loaded, an output that cannot be written — is reported on
// stderr and exits 1.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
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
#include "eval/harness.h"
#include "pristi/pristi_model.h"
#include "serialize/checkpoint.h"
#include "serialize/format.h"

namespace pristi {
namespace {

// Prints `status` on stderr; returns the exit status of a bad input.
int Fail(const Status& status) {
  std::fprintf(stderr, "pristi_cli: %s\n", status.ToString().c_str());
  return 1;
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

Status ModelOutFailed(const std::string& path, const Status& status) {
  return Status::Error(status.code(), "cannot write --model-out " + path +
                                          ": " + status.message());
}

// Preset name -> generator config; shared by `generate` and the on-the-fly
// fallback of every data-consuming subcommand.
Status PresetConfig(const std::string& preset, int64_t nodes, int64_t steps,
                    data::SyntheticConfig* config) {
  if (preset == "aqi") {
    *config = data::Aqi36LikeConfig(nodes, steps);
  } else if (preset == "metr") {
    *config = data::MetrLaLikeConfig(nodes, steps);
  } else if (preset == "pems") {
    *config = data::PemsBayLikeConfig(nodes, steps);
  } else if (preset == "large") {
    *config = data::LargeGraphLikeConfig(nodes, steps);
  } else {
    return InvalidFlag("unknown --preset " + preset +
                       " (aqi|metr|pems|large)");
  }
  return data::ValidateSyntheticConfig(*config);
}

// Per-preset default sizes: the large preset exists to exercise the node
// axis, the classic three default to quick CI-scale shapes.
int64_t DefaultPresetNodes(const std::string& preset) {
  return preset == "large" ? 1024 : 16;
}
int64_t DefaultPresetSteps(const std::string& preset) {
  return preset == "large" ? 384 : 720;
}

Status LoadOrGenerate(const Flags& flags, Rng& rng,
                      data::SpatioTemporalDataset* dataset) {
  std::string path = flags.GetString("data");
  if (!path.empty()) {
    Status status = data::ReadBinaryDataset(path, dataset);
    return status.ok() ? status : LoadFailed("data", path, status);
  }
  // No --data: generate in place. --gen-steps (not --steps, which already
  // means kept reverse steps on these subcommands) controls the length.
  std::string preset = flags.GetString("preset", "aqi");
  int64_t nodes = flags.GetInt("nodes", DefaultPresetNodes(preset));
  int64_t steps = flags.GetInt("gen-steps", DefaultPresetSteps(preset));
  data::SyntheticConfig config;
  Status status = PresetConfig(preset, nodes, steps, &config);
  if (!status.ok()) return status;
  PRISTI_LOG_WARNING << "--data not given; generating a '" << preset
                     << "' dataset (" << nodes << " nodes x " << steps
                     << " steps)";
  *dataset = data::GenerateSynthetic(config, rng);
  return Status::Ok();
}

Status ModelConfig(const Flags& flags, const data::ImputationTask& task,
                   core::PristiConfig* out) {
  core::PristiConfig& config = *out;
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
  return core::ValidatePristiConfig(config);
}

Status RunOptions(const Flags& flags, const data::ImputationTask& task,
                  eval::DiffusionRunOptions* out) {
  eval::DiffusionRunOptions& options = *out;
  options.diffusion_steps = flags.GetInt("steps-diffusion", 30);
  options.train.epochs = flags.GetInt("epochs", 40);
  options.train.batch_size = flags.GetInt("batch", 8);
  options.train.lr = static_cast<float>(flags.GetDouble("lr", 2e-3));
  options.train.high_t_bias = flags.GetDouble("high-t-bias", 0.5);
  options.impute.num_samples = flags.GetInt("samples", 15);
  if (options.impute.num_samples < 1) {
    return InvalidFlag("--samples must be >= 1, got " +
                       std::to_string(options.impute.num_samples));
  }
  // --sampler=ddpm|ddim|plms, --steps=K kept reverse steps (0 = full
  // schedule). The default (ddim, 10 of 30) is the old stride-3 DDIM.
  std::string sampler = flags.GetString("sampler", "ddim");
  if (!diffusion::ParseSamplerKind(sampler, &options.impute.sampler)) {
    return InvalidFlag("unknown --sampler " + sampler + " (ddpm|ddim|plms)");
  }
  options.impute.num_inference_steps = flags.GetInt("steps", 10);
  if (options.impute.num_inference_steps < 0) {
    return InvalidFlag("--steps must be >= 0, got " +
                       std::to_string(options.impute.num_inference_steps));
  }
  options.train.ema_decay =
      static_cast<float>(flags.GetDouble("ema-decay", 0.0));
  // Shard-parallel training (diffusion/sharded_train.h): --shards=K, 0 =
  // one shard per pool worker. K changes no bit.
  options.train.num_shards = flags.GetInt("shards", 0);
  options.train.checkpoint_dir = flags.GetString("checkpoint-dir");
  options.train.checkpoint_every = flags.GetInt("checkpoint-every", 1);
  options.train.checkpoint_keep_last = flags.GetInt("keep-last", 3);
  options.train.resume_from = flags.GetString("resume");
  switch (task.pattern) {
    case data::MissingPattern::kPoint:
      options.train.mask_strategy = data::MaskStrategy::kPoint;
      break;
    case data::MissingPattern::kBlock:
      options.train.mask_strategy = data::MaskStrategy::kHybrid;
      break;
    case data::MissingPattern::kSimulatedFailure:
      options.train.mask_strategy = data::MaskStrategy::kHybridHistorical;
      break;
  }
  Status status = diffusion::ValidateScheduleSteps(options.diffusion_steps);
  return status.ok() ? diffusion::ValidateTrainOptions(options.train)
                     : status;
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

int CmdGenerate(const Flags& flags) {
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  std::string preset = flags.GetString("preset", "aqi");
  int64_t nodes = flags.GetInt("nodes", DefaultPresetNodes(preset));
  int64_t steps = flags.GetInt("steps", DefaultPresetSteps(preset));
  data::SyntheticConfig config;
  Status status = PresetConfig(preset, nodes, steps, &config);
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
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  eval::DiffusionRunOptions options;
  status = RunOptions(flags, task, &options);
  if (!status.ok()) return Fail(status);
  // Fail now, not after the last epoch, if the checkpoint cannot be saved.
  std::string out = flags.GetString("model-out", "pristi.ckpt");
  status = serialize::ProbeFileAtomic(out);
  if (!status.ok()) return Fail(ModelOutFailed(out, status));
  options.train.on_epoch = [](int64_t epoch, double loss) {
    if (epoch % 5 == 0) {
      std::printf("epoch %3lld  loss %.4f\n", static_cast<long long>(epoch),
                  loss);
      std::fflush(stdout);
    }
  };
  auto model = std::make_shared<core::PristiModel>(
      config, task.dataset.graph.adjacency, rng);
  auto schedule = diffusion::NoiseSchedule::Quadratic(
      options.diffusion_steps, options.beta_1, options.beta_end);
  std::printf("training PriSTI (%lld parameters)...\n",
              static_cast<long long>(model->ParameterCount()));
  std::vector<double> losses;
  status = diffusion::TrainDiffusionModel(model.get(), schedule, task,
                                          options.train, rng, &losses);
  if (!status.ok()) return Fail(status);
  status = serialize::SaveModuleCheckpointFile(*model, out);
  if (!status.ok()) return Fail(ModelOutFailed(out, status));
  std::printf("saved checkpoint to %s\n", out.c_str());
  return 0;
}

int CmdImpute(const Flags& flags) {
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  eval::DiffusionRunOptions options;
  status = RunOptions(flags, task, &options);
  if (!status.ok()) return Fail(status);
  auto model = std::make_shared<core::PristiModel>(
      config, task.dataset.graph.adjacency, rng);
  std::string ckpt = flags.GetString("model");
  if (!ckpt.empty()) {
    status = serialize::LoadModuleCheckpointFile(*model, ckpt);
    if (!status.ok()) return Fail(LoadFailed("model", ckpt, status));
    std::printf("loaded checkpoint %s\n", ckpt.c_str());
  } else {
    PRISTI_LOG_WARNING << "--model not given; imputing with an untrained "
                          "model (use `train` first)";
  }
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
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  core::PristiModel model(config, task.dataset.graph.adjacency, rng);
  std::string out = flags.GetString("out", "pristi.ckpt");
  status = serialize::SaveModuleCheckpointFile(model, out);
  if (!status.ok()) {
    std::printf("save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %lld parameters to %s\n",
              static_cast<long long>(model.ParameterCount()), out.c_str());
  return 0;
}

// `load`: validates that a checkpoint restores into the model architecture
// described by the flags; with --out it re-saves it in the current format.
int CmdLoad(const Flags& flags) {
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  core::PristiConfig config;
  status = ModelConfig(flags, task, &config);
  if (!status.ok()) return Fail(status);
  core::PristiModel model(config, task.dataset.graph.adjacency, rng);
  std::string path = flags.GetString("model");
  if (path.empty()) {
    std::printf("load: --model=<checkpoint> is required\n");
    return 2;
  }
  status = serialize::LoadModuleCheckpointFile(model, path);
  if (!status.ok()) {
    std::printf("load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("loaded %lld parameters from %s\n",
              static_cast<long long>(model.ParameterCount()), path.c_str());
  std::string out = flags.GetString("out");
  if (!out.empty()) {
    status = serialize::SaveModuleCheckpointFile(model, out);
    if (!status.ok()) {
      std::printf("re-save failed: %s\n", status.ToString().c_str());
      return 1;
    }
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
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  data::ImputationTask task;
  Status status = MakeTaskFromFlags(flags, rng, &task);
  if (!status.ok()) return Fail(status);
  std::string method = flags.GetString("method", "pristi");
  std::unique_ptr<baselines::Imputer> imputer;
  if (method == "pristi" || method == "csdi") {
    eval::DiffusionRunOptions options;
    status = RunOptions(flags, task, &options);
    if (!status.ok()) return Fail(status);
    if (method == "pristi") {
      core::PristiConfig config;
      status = ModelConfig(flags, task, &config);
      if (!status.ok()) return Fail(status);
      imputer = eval::MakePristiImputer(config, task.dataset.graph.adjacency,
                                        options, rng);
    } else {
      baselines::CsdiConfig config;
      config.num_nodes = task.dataset.num_nodes;
      config.window_len = task.window_len;
      config.channels = flags.GetInt("channels", 16);
      config.heads = flags.GetInt("heads", 4);
      config.layers = flags.GetInt("layers", 2);
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

int Usage() {
  std::printf(
      "usage: pristi_cli "
      "<generate|train|impute|evaluate|save|load|inspect> [--flags]\n"
      "  generate --preset=aqi|metr|pems|large --nodes=N --steps=T "
      "--out=F.bin\n"
      "  train    --data=F.bin --pattern=point|block|failure --epochs=E\n"
      "           --model-out=F.ckpt [--shards=K] [--checkpoint-dir=D]\n"
      "           [--checkpoint-every=K] [--keep-last=K] [--ema-decay=D]\n"
      "           [--resume=D/ckpt-N.ckpt]\n"
      "           (without --data: --preset --nodes --gen-steps generate\n"
      "           in place; --shards=K sets the shard count, default one\n"
      "           per worker thread; every K trains the same bits)\n"
      "  impute   --data=F.bin --pattern=... --model=F.ckpt --out=F.csv\n"
      "           [--sampler=ddpm|ddim|plms] [--steps=K]  (K kept reverse\n"
      "           steps, 0 = full schedule; default ddim, 10)\n"
      "  evaluate --data=F.bin --pattern=... --method=pristi|csdi|mean|...\n"
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
  } else {
    return Usage();
  }
  // A failed command stops reading flags early, so only a finished one
  // can tell an unused flag from an unread one.
  if (status == 0) {
    for (const std::string& key : flags.UnqueriedKeys()) {
      PRISTI_LOG_WARNING << "unused flag --" << key;
    }
  }
  return status;
}

}  // namespace
}  // namespace pristi

int main(int argc, char** argv) { return pristi::Main(argc, argv); }
