#ifndef PRISTI_SERIALIZE_CHECKPOINT_H_
#define PRISTI_SERIALIZE_CHECKPOINT_H_

// High-level checkpoint assembly on top of the record format (format.h):
// named parameter maps for nn::Module trees, Adam optimizer state (step
// count + moment buffers + hyperparameters), RNG stream positions and the
// diffusion noise schedule — everything a training run needs to resume
// bit-identically — plus datasets, crash-safe file handling (atomic
// write-to-temp + rename) and keep-last-K retention.
//
// Record naming convention inside one checkpoint file:
//   meta.kind                "pristi-module" | "pristi-training" |
//                            "pristi-dataset"
//   model.__count            number of parameter records
//   model.<hierarchical name>  one tensor per named parameter
//   adam.step / adam.lr / adam.beta1 / adam.beta2 / adam.eps
//   adam.weight_decay / adam.__count / adam.m.<i> / adam.v.<i>
//   rng.train                textual mt19937_64 stream state
//   schedule.beta            the beta vector the model was trained under
//   train.epoch              epochs completed (index of the next epoch)
//   train.losses             per-epoch mean training loss so far
//   dataset.name / dataset.steps_per_day
//   dataset.values / dataset.observed_mask   (T, N) tensors
//   dataset.coords           (N, 2) sensor positions

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "serialize/format.h"

namespace pristi::serialize {

// ---- Component writers/loaders ---------------------------------------------
// Writers append records under `prefix`; loaders validate names, shapes and
// counts against the live object and return typed errors without mutating
// it on failure (a partially-applied restore would be worse than a crash).

void AppendModule(nn::Module& module, CheckpointWriter* writer,
                  const std::string& prefix = "model.");
Status LoadModule(nn::Module& module, const CheckpointView& view,
                  const std::string& prefix = "model.");

void AppendAdam(const nn::Adam& optimizer, CheckpointWriter* writer,
                const std::string& prefix = "adam.");
Status LoadAdam(nn::Adam* optimizer, const CheckpointView& view,
                const std::string& prefix = "adam.");

void AppendRng(const Rng& rng, CheckpointWriter* writer,
               const std::string& name = "rng.train");
Status LoadRng(Rng* rng, const CheckpointView& view,
               const std::string& name = "rng.train");

// ---- Whole-module checkpoint files -----------------------------------------
// A standalone model checkpoint ("pristi-module" kind): header + named
// parameters. Save is atomic (temp file + rename).
Status SaveModuleCheckpointFile(nn::Module& module, const std::string& path);
Status LoadModuleCheckpointFile(nn::Module& module, const std::string& path);

// ---- Dataset files ---------------------------------------------------------
// A dataset ("pristi-dataset" kind). Save is atomic. Load rejects a file of
// another kind (kConfigMismatch), then hands the records to
// data::AssembleDataset, whose checks and graph rebuild apply; `*dataset` is
// untouched on every error.
Status SaveDatasetFile(const data::SpatioTemporalDataset& dataset,
                       const std::string& path);
Status LoadDatasetFile(const std::string& path,
                       data::SpatioTemporalDataset* dataset);

// ---- Crash-safe file write -------------------------------------------------
// Runs `write_fn` against a temporary file next to `path`, then renames it
// over `path` only if every write succeeded. On any failure the temporary
// is removed and `path` is left untouched, so a reader never observes a
// partial checkpoint under the final name.
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::ostream&)>& write_fn);

// Checks, before any costly work, that a later WriteFileAtomic(path) can open
// its temporary file and that `path` is not a directory. Neither creates nor
// truncates `path`: an existing file there survives the probe untouched.
Status ProbeFileAtomic(const std::string& path);

// Parses `path` into `view` (strict mode unless keep_corrupt).
Status ParseCheckpointFile(const std::string& path, CheckpointView* view,
                           bool keep_corrupt = false);

// ---- Retention -------------------------------------------------------------
// "<dir>/<prefix>-<epoch>.ckpt".
std::string CheckpointFileName(const std::string& dir,
                               const std::string& prefix, int64_t epoch);
// Deletes all but the `keep_last` highest-epoch "<prefix>-<N>.ckpt" files
// in `dir`. keep_last <= 0 keeps everything.
Status PruneCheckpoints(const std::string& dir, const std::string& prefix,
                        int64_t keep_last);

}  // namespace pristi::serialize

#endif  // PRISTI_SERIALIZE_CHECKPOINT_H_
