#include "serialize/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "data/io.h"

namespace pristi::serialize {

namespace fs = std::filesystem;
namespace t = ::pristi::tensor;

using autograd::Variable;
using tensor::Tensor;

// ---- Module ----------------------------------------------------------------

void AppendModule(nn::Module& module, CheckpointWriter* writer,
                  const std::string& prefix) {
  auto named = module.NamedParameters();
  writer->AddI64(prefix + "__count", static_cast<int64_t>(named.size()));
  for (auto& [name, param] : named) {
    writer->AddTensor(prefix + name, param.value());
  }
}

Status LoadModule(nn::Module& module, const CheckpointView& view,
                  const std::string& prefix) {
  auto named = module.NamedParameters();
  int64_t stored_count = 0;
  Status status = view.GetI64(prefix + "__count", &stored_count);
  if (!status.ok()) return status;
  if (stored_count != static_cast<int64_t>(named.size())) {
    return Status::Error(
        ErrorCode::kCountMismatch,
        "checkpoint stores " + std::to_string(stored_count) +
            " parameters, model has " + std::to_string(named.size()));
  }
  // Stage every tensor before touching the module, so a failure partway
  // through leaves the live weights untouched.
  std::vector<Tensor> staged(named.size());
  for (size_t i = 0; i < named.size(); ++i) {
    const std::string& name = named[i].first;
    status = view.GetTensor(prefix + name, &staged[i]);
    if (!status.ok()) return status;
    const t::Shape& expected = named[i].second.value().shape();
    if (!t::ShapesEqual(staged[i].shape(), expected)) {
      return Status::Error(
          ErrorCode::kShapeMismatch,
          "parameter '" + name + "' has shape " +
              t::ShapeToString(expected) + " but the checkpoint stores " +
              t::ShapeToString(staged[i].shape()));
    }
  }
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.mutable_value() = std::move(staged[i]);
  }
  return Status::Ok();
}

// ---- Adam ------------------------------------------------------------------

void AppendAdam(const nn::Adam& optimizer, CheckpointWriter* writer,
                const std::string& prefix) {
  const nn::AdamOptions& options = optimizer.options();
  writer->AddI64(prefix + "step", optimizer.step_count());
  writer->AddF64(prefix + "lr", options.lr);
  writer->AddF64(prefix + "beta1", options.beta1);
  writer->AddF64(prefix + "beta2", options.beta2);
  writer->AddF64(prefix + "eps", options.eps);
  writer->AddF64(prefix + "weight_decay", options.weight_decay);
  const std::vector<Tensor>& m = optimizer.moment1();
  const std::vector<Tensor>& v = optimizer.moment2();
  writer->AddI64(prefix + "__count", static_cast<int64_t>(m.size()));
  for (size_t i = 0; i < m.size(); ++i) {
    writer->AddTensor(prefix + "m." + std::to_string(i), m[i]);
    writer->AddTensor(prefix + "v." + std::to_string(i), v[i]);
  }
}

Status LoadAdam(nn::Adam* optimizer, const CheckpointView& view,
                const std::string& prefix) {
  int64_t step = 0, count = 0;
  double lr = 0, beta1 = 0, beta2 = 0, eps = 0, weight_decay = 0;
  Status status;
  if (!(status = view.GetI64(prefix + "step", &step)).ok()) return status;
  if (!(status = view.GetF64(prefix + "lr", &lr)).ok()) return status;
  if (!(status = view.GetF64(prefix + "beta1", &beta1)).ok()) return status;
  if (!(status = view.GetF64(prefix + "beta2", &beta2)).ok()) return status;
  if (!(status = view.GetF64(prefix + "eps", &eps)).ok()) return status;
  if (!(status = view.GetF64(prefix + "weight_decay", &weight_decay)).ok()) {
    return status;
  }
  if (!(status = view.GetI64(prefix + "__count", &count)).ok()) return status;
  if (step < 0) {
    return Status::Error(ErrorCode::kBadRecord,
                         "negative optimizer step count in checkpoint");
  }
  const nn::AdamOptions& options = optimizer->options();
  // beta/eps/weight-decay are configuration: a silent difference would make
  // the resumed trajectory diverge, so it is rejected rather than ignored.
  // The learning rate is *state* (the LR schedule mutates it) and is
  // restored below instead of checked.
  if (static_cast<float>(beta1) != options.beta1 ||
      static_cast<float>(beta2) != options.beta2 ||
      static_cast<float>(eps) != options.eps ||
      static_cast<float>(weight_decay) != options.weight_decay) {
    return Status::Error(ErrorCode::kConfigMismatch,
                         "checkpoint Adam hyperparameters differ from the "
                         "live optimizer's configuration");
  }
  const std::vector<Tensor>& live_m = optimizer->moment1();
  if (count != static_cast<int64_t>(live_m.size())) {
    return Status::Error(
        ErrorCode::kCountMismatch,
        "checkpoint stores " + std::to_string(count) +
            " moment buffers, optimizer tracks " +
            std::to_string(live_m.size()) + " parameters");
  }
  std::vector<Tensor> m(live_m.size()), v(live_m.size());
  for (size_t i = 0; i < live_m.size(); ++i) {
    std::string index = std::to_string(i);
    if (!(status = view.GetTensor(prefix + "m." + index, &m[i])).ok()) {
      return status;
    }
    if (!(status = view.GetTensor(prefix + "v." + index, &v[i])).ok()) {
      return status;
    }
    if (!t::ShapesEqual(m[i].shape(), live_m[i].shape()) ||
        !t::ShapesEqual(v[i].shape(), live_m[i].shape())) {
      return Status::Error(ErrorCode::kShapeMismatch,
                           "optimizer moment " + index +
                               " shape differs from the live parameter");
    }
  }
  optimizer->RestoreState(step, std::move(m), std::move(v));
  optimizer->set_lr(static_cast<float>(lr));
  return Status::Ok();
}

// ---- RNG -------------------------------------------------------------------

void AppendRng(const Rng& rng, CheckpointWriter* writer,
               const std::string& name) {
  writer->AddString(name, rng.SaveStateString());
}

Status LoadRng(Rng* rng, const CheckpointView& view, const std::string& name) {
  std::string state;
  Status status = view.GetString(name, &state);
  if (!status.ok()) return status;
  if (!rng->LoadStateString(state)) {
    return Status::Error(ErrorCode::kBadRecord,
                         "record '" + name +
                             "' is not a valid mt19937_64 stream state");
  }
  return Status::Ok();
}

// ---- Atomic file write -----------------------------------------------------

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::ostream&)>& write_fn) {
  // Single-writer-per-path assumption: the temp name is deterministic so a
  // crashed writer's leftover is reclaimed (overwritten) by the next save.
  std::string tmp = path + ".tmp";
  Status status;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Error(ErrorCode::kIoError,
                           "cannot open '" + tmp + "' for writing");
    }
    status = write_fn(out);
    if (status.ok() && !out) {
      status = Status::Error(ErrorCode::kIoError,
                             "write to '" + tmp + "' failed");
    }
    out.flush();
    if (status.ok() && !out) {
      status = Status::Error(ErrorCode::kIoError,
                             "flush of '" + tmp + "' failed");
    }
  }
  if (!status.ok()) {
    std::error_code ec;
    fs::remove(tmp, ec);  // best effort; never mask the original error
    return status;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::Error(ErrorCode::kIoError,
                         "rename '" + tmp + "' -> '" + path + "' failed");
  }
  return Status::Ok();
}

Status ProbeFileAtomic(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    return Status::Error(ErrorCode::kIoError,
                         "'" + path + "' is a directory");
  }
  // Opens exactly the temporary WriteFileAtomic will open, then drops it.
  std::string tmp = path + ".tmp";
  if (!std::ofstream(tmp, std::ios::binary | std::ios::trunc)) {
    return Status::Error(ErrorCode::kIoError,
                         "cannot open '" + tmp + "' for writing");
  }
  fs::remove(tmp, ec);
  return Status::Ok();
}

Status ParseCheckpointFile(const std::string& path, CheckpointView* view,
                           bool keep_corrupt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(ErrorCode::kIoError, "cannot open '" + path + "'");
  }
  return CheckpointView::Parse(in, view, keep_corrupt);
}

// ---- Whole-module checkpoint files -----------------------------------------

Status SaveModuleCheckpointFile(nn::Module& module, const std::string& path) {
  return WriteFileAtomic(path, [&](std::ostream& out) {
    CheckpointWriter writer(out);
    writer.AddString("meta.kind", "pristi-module");
    AppendModule(module, &writer);
    if (!writer.Finish()) {
      return Status::Error(ErrorCode::kIoError, "checkpoint write failed");
    }
    return Status::Ok();
  });
}

Status LoadModuleCheckpointFile(nn::Module& module, const std::string& path) {
  CheckpointView view;
  Status status = ParseCheckpointFile(path, &view);
  if (!status.ok()) return status;
  return LoadModule(module, view);
}

// ---- Dataset files ---------------------------------------------------------

Status SaveDatasetFile(const data::SpatioTemporalDataset& dataset,
                       const std::string& path) {
  return WriteFileAtomic(path, [&](std::ostream& out) {
    CheckpointWriter writer(out);
    writer.AddString("meta.kind", "pristi-dataset");
    writer.AddString("dataset.name", dataset.name);
    writer.AddI64("dataset.steps_per_day", dataset.steps_per_day);
    writer.AddTensor("dataset.values", dataset.values);
    writer.AddTensor("dataset.observed_mask", dataset.observed_mask);
    writer.AddTensor("dataset.coords", dataset.graph.coords);
    if (!writer.Finish()) {
      return Status::Error(ErrorCode::kIoError, "dataset write failed");
    }
    return Status::Ok();
  });
}

Status LoadDatasetFile(const std::string& path,
                       data::SpatioTemporalDataset* dataset) {
  CheckpointView view;
  Status status = ParseCheckpointFile(path, &view);
  if (!status.ok()) return status;
  std::string kind;
  if (!(status = view.GetString("meta.kind", &kind)).ok()) return status;
  if (kind != "pristi-dataset") {
    return Status::Error(ErrorCode::kConfigMismatch,
                         "a '" + kind + "' file, not a dataset");
  }
  std::string name;
  int64_t steps_per_day = 0;
  Tensor values, mask, coords;
  if (!(status = view.GetString("dataset.name", &name)).ok() ||
      !(status = view.GetI64("dataset.steps_per_day", &steps_per_day)).ok() ||
      !(status = view.GetTensor("dataset.values", &values)).ok() ||
      !(status = view.GetTensor("dataset.observed_mask", &mask)).ok() ||
      !(status = view.GetTensor("dataset.coords", &coords)).ok()) {
    return status;
  }
  return data::AssembleDataset(name, steps_per_day, values, mask, coords,
                               dataset);
}

// ---- Retention -------------------------------------------------------------

std::string CheckpointFileName(const std::string& dir,
                               const std::string& prefix, int64_t epoch) {
  return (fs::path(dir) / (prefix + "-" + std::to_string(epoch) + ".ckpt"))
      .string();
}

Status PruneCheckpoints(const std::string& dir, const std::string& prefix,
                        int64_t keep_last) {
  if (keep_last <= 0) return Status::Ok();
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::Error(ErrorCode::kIoError,
                         "cannot list checkpoint dir '" + dir + "'");
  }
  std::vector<std::pair<int64_t, fs::path>> found;
  std::string head = prefix + "-";
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() <= head.size() + 5 || name.rfind(head, 0) != 0 ||
        name.substr(name.size() - 5) != ".ckpt") {
      continue;
    }
    std::string digits = name.substr(head.size(),
                                     name.size() - head.size() - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoll(digits), entry.path());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = static_cast<size_t>(keep_last); i < found.size(); ++i) {
    fs::remove(found[i].second, ec);  // best effort
  }
  return Status::Ok();
}

}  // namespace pristi::serialize
