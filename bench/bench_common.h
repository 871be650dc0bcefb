#ifndef PRISTI_BENCH_BENCH_COMMON_H_
#define PRISTI_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the table/figure reproduction binaries.
//
// Every bench defaults to a CI-friendly reduced scale (minutes total across
// the suite); set PRISTI_SCALE=full for paper-shaped runs (hours). The knobs
// chosen per scale are printed in each bench's header so runs are
// self-describing.

#include <memory>
#include <string>
#include <vector>

#include "baselines/factorization.h"
#include "baselines/kalman.h"
#include "baselines/regression.h"
#include "baselines/rnn.h"
#include "baselines/simple.h"
#include "baselines/vae.h"
#include "common/env.h"
#include "common/table_printer.h"
#include "eval/harness.h"

namespace pristi::bench {

using baselines::Imputer;
using data::MissingPattern;

enum class Preset { kAqi36, kMetrLa, kPemsBay };

const char* PresetName(Preset preset);

// Scale knobs resolved from PRISTI_SCALE.
struct Scale {
  bool full = false;
  // Dataset sizes per preset.
  int64_t aqi_nodes = 16, aqi_steps = 576;
  int64_t metr_nodes = 20, metr_steps = 576;
  int64_t pems_nodes = 24, pems_steps = 576;
  int64_t window_len = 16;
  int64_t train_stride = 4;
  // Deep-model sizes.
  int64_t channels = 16;
  int64_t heads = 4;
  int64_t layers = 2;
  int64_t virtual_nodes = 8;
  // Diffusion.
  int64_t diffusion_steps = 30;
  int64_t diffusion_epochs = 40;
  int64_t impute_samples = 15;
  int64_t crps_samples = 15;
  // RNN / VAE baselines.
  int64_t rnn_epochs = 10;
  int64_t vae_epochs = 14;
};

Scale ResolveScale();

// Builds the dataset + injected-pattern task for a preset at a scale. The
// pattern defaults to the paper's pairing (AQI -> simulated failure).
data::ImputationTask MakeTask(Preset preset, MissingPattern pattern,
                              const Scale& scale, uint64_t seed);

// Default model configs derived from a task + scale.
core::PristiConfig PristiConfigFor(const data::ImputationTask& task,
                                   const Scale& scale);
baselines::CsdiConfig CsdiConfigFor(const data::ImputationTask& task,
                                    const Scale& scale);
eval::DiffusionRunOptions DiffusionOptionsFor(const data::ImputationTask& task,
                                              const Scale& scale);
baselines::RecurrentOptions RecurrentOptionsFor(const Scale& scale);
baselines::VaeOptions VaeOptionsFor(const Scale& scale);

// The full Table III method roster, in the paper's row order.
std::vector<std::unique_ptr<Imputer>> MakeAllMethods(
    const data::ImputationTask& task, const Scale& scale, Rng& rng);

// The "top 4" deep subset used by Tables V and Fig. 5 (BRITS, GRIN, CSDI,
// PriSTI).
std::vector<std::unique_ptr<Imputer>> MakeDeepMethods(
    const data::ImputationTask& task, const Scale& scale, Rng& rng);

// Writes the table text to stdout and its CSV to
// $PRISTI_BENCH_DIR/<experiment_id>.csv, or results/<experiment_id>.csv when
// that is unset. The directory is created if missing.
void EmitTable(const std::string& experiment_id, const TablePrinter& table);

}  // namespace pristi::bench

#endif  // PRISTI_BENCH_BENCH_COMMON_H_
