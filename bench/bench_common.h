#ifndef PRISTI_BENCH_BENCH_COMMON_H_
#define PRISTI_BENCH_BENCH_COMMON_H_

// Shared scaffolding of the paper-evaluation driver (pristi_paper): the
// dataset presets, the two scales, and the task, config and method-roster
// builders every table and figure draws on.
//
// The quick scale (the default) is CI-sized — minutes for the whole suite;
// `pristi_paper --scale=full` selects the paper's shapes (hours). The
// driver prints the scale in each table's header so runs are
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
#include "common/status.h"
#include "common/table_printer.h"
#include "eval/harness.h"

namespace pristi::bench {

using baselines::Imputer;
using data::MissingPattern;

enum class Preset { kAqi36, kMetrLa, kPemsBay };

const char* PresetName(Preset preset);

// Scale knobs. A default-constructed Scale is the quick scale.
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

// Sets `*scale` to the scale named "quick" or "full"; any other name comes
// back as kInvalidRequest and leaves `*scale` unchanged.
Status ScaleNamed(const std::string& name, Scale* scale);

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

}  // namespace pristi::bench

#endif  // PRISTI_BENCH_BENCH_COMMON_H_
