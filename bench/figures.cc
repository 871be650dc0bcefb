// Figs. 5–9 of the paper, and two extension studies beyond it.

#include <algorithm>
#include <cstdio>

#include "common/stopwatch.h"
#include "paper.h"
#include "tensor/kernels/kernels.h"
#include "tensor/storage.h"

namespace pristi::bench {
namespace {

// A copy of `base` whose eval mask withholds `rate` of the observed
// entries, drawn with `seed`.
data::ImputationTask WithRate(const data::ImputationTask& base, double rate,
                              uint64_t seed) {
  data::ImputationTask task = base;
  Rng rng(seed);
  if (base.pattern == MissingPattern::kPoint) {
    task.eval_mask =
        data::InjectPointMissing(base.dataset.observed_mask, rate, rng);
  } else {
    // Scale the outage start probability so expected coverage hits `rate`;
    // lengths in [12, 48] as in the paper's sensitivity protocol.
    data::BlockMissingOptions options;
    options.min_len = 12;
    options.max_len = 48;
    options.point_rate = 0.05;
    double avg_len = 0.5 * (options.min_len + options.max_len);
    options.block_prob = std::max(0.0, rate - options.point_rate) / avg_len;
    task.eval_mask = data::InjectBlockMissing(base.dataset.observed_mask,
                                              options, rng);
  }
  task.model_observed_mask =
      data::MaskMinus(base.dataset.observed_mask, task.eval_mask);
  return task;
}

// Counter deltas of one timed Fig. 9 phase: wall clock, buffer-pool
// allocator and GEMM kernel layer. The peak is the phase's own: the
// high-water mark restarts when the phase starts, and the bytes already
// live then (the other experiments' cached models) are not counted.
class Phase {
 public:
  Phase() { tensor::ResetPeakLiveBytes(); }

  // ms, alloc_requests, heap_allocs, pool_hit_rate, peak_live_mb,
  // gemm_gflops_per_sec, pack_cache_hit_rate; `*seconds` receives the wall
  // time the cells were computed from.
  std::vector<std::string> Cells(double* seconds_out) const {
    double seconds = watch_.ElapsedSeconds();
    *seconds_out = seconds;
    tensor::AllocStats alloc = tensor::GetAllocStats();
    tensor::kernels::KernelStats kernels = tensor::kernels::GetKernelStats();
    double requests = static_cast<double>(alloc.requests - alloc_.requests);
    double heap =
        static_cast<double>(alloc.heap_allocs - alloc_.heap_allocs);
    double flops = static_cast<double>(kernels.flops - kernels_.flops);
    double hits = static_cast<double>(kernels.pack_cache_hits -
                                      kernels_.pack_cache_hits);
    double lookups = hits + static_cast<double>(kernels.pack_cache_misses -
                                                kernels_.pack_cache_misses);
    return {TablePrinter::Num(seconds * 1e3, 1),
            TablePrinter::Num(requests, 0),
            TablePrinter::Num(heap, 0),
            TablePrinter::Num(requests > 0 ? (requests - heap) / requests : 0,
                              3),
            TablePrinter::Num(static_cast<double>(alloc.peak_live_bytes -
                                                  alloc_.live_bytes) /
                                  (1 << 20),
                              2),
            TablePrinter::Num(seconds > 0 ? flops / seconds / 1e9 : 0, 2),
            TablePrinter::Num(lookups > 0 ? hits / lookups : 0, 3)};
  }

 private:
  tensor::AllocStats alloc_ = tensor::GetAllocStats();
  tensor::kernels::KernelStats kernels_ = tensor::kernels::GetKernelStats();
  Stopwatch watch_;
};

// Timed runs per Fig. 9 phase, after one untimed warm-up run.
constexpr int kTimedRuns = 5;

// Runs `fn` once untimed — the first call packs weights, grows the buffer
// pool and starts the thread pool — then kTimedRuns times, each as its own
// Phase, and returns the cells of the run with the median wall time.
template <typename Fn>
std::vector<std::string> MedianPhaseCells(Fn&& fn) {
  fn();
  std::vector<std::pair<double, std::vector<std::string>>> runs;
  for (int i = 0; i < kTimedRuns; ++i) {
    Phase phase;
    fn();
    double seconds = 0.0;
    std::vector<std::string> cells = phase.Cells(&seconds);
    runs.emplace_back(seconds, std::move(cells));
  }
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return std::move(runs[kTimedRuns / 2].second);
}

}  // namespace

// Fig. 5: MAE against the missing rate (10%–90%) on METR-LA, block and
// point, for BRITS, GRIN, CSDI and PriSTI. Each method is Table III's fit
// of its setting (trained once per pattern, as in the paper), evaluated on
// re-injected eval masks of increasing sparsity. Expected shape: every
// method degrades as the rate grows; PriSTI degrades most gracefully.
TablePrinter Fig5(Paper& paper) {
  std::printf("== Fig. 5: MAE vs missing rate, METR-LA-like (scale=%s) ==\n",
              paper.scale_name());
  TablePrinter table({"pattern", "method", "rate", "MAE", "seed"});
  for (const Setting& setting : {kMetrBlock, kMetrPoint}) {
    std::printf("-- pattern %s\n", data::MissingPatternName(setting.pattern));
    for (const char* name : {"BRITS", "GRIN", "CSDI", "PriSTI"}) {
      Fitted fit = paper.Fit(setting, name);
      for (int percent : {10, 30, 50, 70, 90}) {
        data::ImputationTask variant =
            WithRate(paper.Task(setting), percent / 100.0,
                     setting.seed + 3000 + static_cast<uint64_t>(percent));
        Rng run_rng = fit.rng;
        eval::MethodResult result =
            eval::EvaluateFittedImputer(fit.model, variant, run_rng);
        std::printf("   %-8s rate %d%%  MAE %.3f\n", name, percent,
                    result.mae);
        std::fflush(stdout);
        table.AddRow({data::MissingPatternName(setting.pattern), name,
                      std::to_string(percent),
                      TablePrinter::Num(result.mae, 3),
                      std::to_string(setting.seed)});
      }
    }
  }
  return table;
}

// Fig. 6 (case study): for a handful of AQI sensors over the first test
// window, the ground truth, the observed flags, and the imputation median
// with 0.05/0.95 quantiles of Table III's PriSTI fit — the data behind the
// paper's probabilistic-imputation plot.
TablePrinter Fig6(Paper& paper) {
  std::printf("== Fig. 6: case-study imputation dump (scale=%s) ==\n",
              paper.scale_name());
  const Setting& setting = kAqiFailure;
  const data::ImputationTask& task = paper.Task(setting);
  Fitted fit = paper.Fit(setting, "PriSTI");
  data::Sample window = data::ExtractSamples(task, "test").front();
  diffusion::ImputationResult summary = fit.model->ImputeSamples(
      window, std::max<int64_t>(paper.scale().crps_samples, 20), fit.rng);

  int64_t num_sensors = std::min<int64_t>(5, task.dataset.num_nodes);
  TablePrinter table({"sensor", "step", "truth", "observed", "median",
                      "q05", "q95", "seed"});
  for (int64_t sensor = 0; sensor < num_sensors; ++sensor) {
    double mean = task.normalizer.mean(sensor);
    double stddev = task.normalizer.stddev(sensor);
    auto raw = [&](double value) {
      return TablePrinter::Num(value * stddev + mean, 2);
    };
    for (int64_t step = 0; step < task.window_len; ++step) {
      table.AddRow({std::to_string(sensor), std::to_string(step),
                    raw(window.values.at({sensor, step})),
                    window.observed.at({sensor, step}) > 0.5f ? "1" : "0",
                    raw(summary.Quantile(sensor, step, 0.5)),
                    raw(summary.Quantile(sensor, step, 0.05)),
                    raw(summary.Quantile(sensor, step, 0.95)),
                    std::to_string(setting.seed)});
    }
  }
  // Coverage summary: fraction of withheld truths inside the 90% band.
  int64_t covered = 0, total = 0;
  for (int64_t sensor = 0; sensor < task.dataset.num_nodes; ++sensor) {
    for (int64_t step = 0; step < task.window_len; ++step) {
      if (window.observed.at({sensor, step}) > 0.5f) continue;
      float truth = window.values.at({sensor, step});
      if (truth >= summary.Quantile(sensor, step, 0.05) &&
          truth <= summary.Quantile(sensor, step, 0.95)) {
        ++covered;
      }
      ++total;
    }
  }
  std::printf("90%% interval covers %lld / %lld withheld entries (%.1f%%)\n",
              static_cast<long long>(covered), static_cast<long long>(total),
              total > 0 ? 100.0 * covered / total : 0.0);
  return table;
}

// Fig. 7 (RQ5, Kriging-style imputation for failed sensors): the AQI
// stations with the highest and lowest connectivity are blacked out in
// training and test, and PriSTI must reconstruct their series from
// geography and the other stations. GRIN — the only baseline that can use
// geographic information — is the comparison, as in the paper. Expected
// shape: PriSTI below GRIN at both stations; the high-connectivity station
// easier than the low-connectivity one.
TablePrinter Fig7(Paper& paper) {
  std::printf("== Fig. 7: sensor-failure imputation (scale=%s) ==\n",
              paper.scale_name());
  const Setting& setting = kAqiFailure;
  data::ImputationTask task = paper.Task(setting);
  const tensor::Tensor& adjacency = task.dataset.graph.adjacency;
  int64_t station_hi = graph::HighestConnectivityNode(adjacency);
  int64_t station_lo = graph::LowestConnectivityNode(adjacency);
  std::printf("failed stations: #%lld (highest connectivity), #%lld "
              "(lowest)\n",
              static_cast<long long>(station_hi),
              static_cast<long long>(station_lo));
  tensor::Tensor failure = data::InjectSensorFailure(
      task.dataset.observed_mask, {station_hi, station_lo});
  for (int64_t i = 0; i < failure.numel(); ++i) {
    if (failure[i] > 0.5f) task.eval_mask[i] = 1.0f;
  }
  task.model_observed_mask =
      data::MaskMinus(task.dataset.observed_mask, task.eval_mask);

  Rng build_rng(BuildSeed(setting));
  std::unique_ptr<Imputer> methods[] = {
      eval::MakePristiImputer(PristiConfigFor(task, paper.scale()),
                              adjacency,
                              DiffusionOptionsFor(task, paper.scale()),
                              build_rng),
      std::make_unique<baselines::GrinImputer>(
          task.dataset.num_nodes, adjacency,
          RecurrentOptionsFor(paper.scale()), build_rng)};
  TablePrinter table({"station", "connectivity", "method", "MAE", "seed"});
  for (auto& method : methods) {
    Rng fit_rng = paper.FitFresh(method.get(), task, setting);
    for (auto [station, label] :
         {std::pair<int64_t, const char*>{station_hi, "highest"},
          std::pair<int64_t, const char*>{station_lo, "lowest"}}) {
      Rng run_rng = fit_rng;
      eval::MethodResult result = eval::EvaluateFittedImputer(
          method.get(), task, run_rng, {.score_nodes = {station}});
      std::printf("   station %lld (%s)  %-8s MAE %.3f\n",
                  static_cast<long long>(station), label,
                  method->name().c_str(), result.mae);
      std::fflush(stdout);
      table.AddRow({std::to_string(station), label, method->name(),
                    TablePrinter::Num(result.mae, 3),
                    std::to_string(setting.seed)});
    }
  }
  return table;
}

// Fig. 8: sensitivity of PriSTI to the channel size d, the maximum noise
// level beta_T and the number of virtual nodes k on METR-LA point-missing.
// A row at the default value is Table III's PriSTI fit. Expected shape: MAE
// improves (then saturates) with d and k; beta_T has an interior optimum
// around 0.2.
TablePrinter Fig8(Paper& paper) {
  std::printf("== Fig. 8: hyperparameter sensitivity (scale=%s) ==\n",
              paper.scale_name());
  const Setting& setting = kMetrPoint;
  const data::ImputationTask& task = paper.Task(setting);
  const core::PristiConfig defaults = PristiConfigFor(task, paper.scale());
  const eval::DiffusionRunOptions default_options =
      DiffusionOptionsFor(task, paper.scale());
  TablePrinter table({"knob", "value", "MAE", "seed"});

  auto run_once = [&](const char* knob, const std::string& value,
                      bool is_default, const core::PristiConfig& config,
                      float beta_end) {
    eval::MethodResult result;
    if (is_default) {
      Fitted fit = paper.Fit(setting, "PriSTI");
      result = eval::EvaluateFittedImputer(fit.model, task, fit.rng);
    } else {
      eval::DiffusionRunOptions options = default_options;
      options.beta_end = beta_end;
      Rng build_rng(BuildSeed(setting));
      auto model = eval::MakePristiImputer(
          config, task.dataset.graph.adjacency, options, build_rng);
      Rng run_rng = paper.FitFresh(model.get(), task, setting);
      result = eval::EvaluateFittedImputer(model.get(), task, run_rng);
    }
    std::printf("   %-7s = %-5s  MAE %.3f\n", knob, value.c_str(),
                result.mae);
    std::fflush(stdout);
    table.AddRow({knob, value, TablePrinter::Num(result.mae, 3),
                  std::to_string(setting.seed)});
  };

  for (int64_t d : {8, 16, 32}) {
    core::PristiConfig config = defaults;
    config.channels = d;
    config.heads = std::min<int64_t>(config.heads, d / 4);
    run_once("d", std::to_string(d),
             d == defaults.channels && config.heads == defaults.heads, config,
             default_options.beta_end);
  }
  for (float beta_end : {0.05f, 0.1f, 0.2f, 0.4f}) {
    run_once("beta_T", TablePrinter::Num(beta_end, 2),
             beta_end == default_options.beta_end, defaults, beta_end);
  }
  for (int64_t k : {2, 4, 8}) {
    core::PristiConfig config = defaults;
    config.virtual_nodes = k;
    run_once("k", std::to_string(k), k == defaults.virtual_nodes, config,
             default_options.beta_end);
  }
  return table;
}

// Fig. 9: training and inference time of the deep methods on the AQI and
// METR-LA block settings. Each method is built as in its roster with a
// one-epoch budget: the "train_epoch" phase is that one epoch (the paper's
// total training time is epochs x this), the "impute_window" phase imputes
// one test window with the trained model (the paper's inference time is
// windows x samples x this). These timing fits are not cached or counted.
// Expected shape: the diffusion models cost the most, PriSTI some tens of
// percent above CSDI (the paper: +25.7% training, +17.9% inference on
// METR-LA), with the gap growing with the node count.
TablePrinter Fig9(Paper& paper) {
  std::printf("== Fig. 9: time costs (scale=%s) ==\n", paper.scale_name());
  Scale one_epoch = paper.scale();
  one_epoch.diffusion_epochs = 1;
  one_epoch.rnn_epochs = 1;
  one_epoch.vae_epochs = 1;
  TablePrinter table({"phase", "method", "dataset", "ms", "alloc_requests",
                      "heap_allocs", "pool_hit_rate", "peak_live_mb",
                      "gemm_gflops_per_sec", "pack_cache_hit_rate",
                      "samples_per_sec", "seed"});
  for (const Setting& setting : {kAqiFailure, kMetrBlock}) {
    const data::ImputationTask& task = paper.Task(setting);
    data::Sample window = data::ExtractSamples(task, "test").front();
    Rng build_rng(BuildSeed(setting));
    auto roster = MakeAllMethods(task, one_epoch, build_rng);
    for (const char* name : {"BRITS", "GRIN", "V-RIN", "CSDI", "PriSTI"}) {
      Imputer* model = nullptr;
      for (auto& method : roster) {
        if (method->name() == name) model = method.get();
      }
      auto add_row = [&](const char* phase, std::vector<std::string> cells,
                         double samples_per_sec) {
        std::printf("   %-13s %-7s %-13s %10s ms\n", phase, name,
                    PresetName(setting.preset), cells[0].c_str());
        std::fflush(stdout);
        cells.insert(cells.begin(), {phase, name, PresetName(setting.preset)});
        cells.push_back(TablePrinter::Num(samples_per_sec, 1));
        cells.push_back(std::to_string(setting.seed));
        table.AddRow(std::move(cells));
      };
      // Each row is the median of kTimedRuns runs; a single run was too
      // noisy to rank the methods.
      Rng rng(FitSeed(setting));
      add_row("train_epoch",
              MedianPhaseCells([&] { model->Fit(task, rng); }), 0.0);
      autograd::NoGradGuard no_grad;
      std::vector<std::string> cells =
          MedianPhaseCells([&] { model->Impute(window, rng); });
      // Diffusion methods also report reverse-diffusion sampling
      // throughput (generated samples per wall-clock second) over every
      // run.
      auto* adapter = dynamic_cast<eval::DiffusionImputerAdapter*>(model);
      add_row("impute_window", std::move(cells),
              adapter != nullptr && adapter->sample_seconds() > 0.0
                  ? static_cast<double>(adapter->generated_samples()) /
                        adapter->sample_seconds()
                  : 0.0);
    }
  }
  return table;
}

// Extension (beyond the paper): sampler design choices on Table III's AQI
// PriSTI fit — DDPM ancestral against DDIM and PLMS, the kept step count
// and the sample count. Motivates the reduced-scale defaults documented in
// DESIGN.md. The model's own ImputeOptions are restored afterwards.
TablePrinter ExtSampler(Paper& paper) {
  std::printf("== Extension: sampler ablation on one trained PriSTI "
              "(scale=%s) ==\n",
              paper.scale_name());
  const Setting& setting = kAqiFailure;
  Fitted fit = paper.Fit(setting, "PriSTI");
  auto* model = dynamic_cast<eval::DiffusionImputerAdapter*>(fit.model);
  const diffusion::ImputeOptions saved = model->impute_options();

  struct Config {
    const char* name;
    diffusion::ImputeOptions impute;
  };
  using diffusion::SamplerKind;
  // Step counts > the schedule length clamp to the full schedule, so the
  // PLMS steps=50 row is meaningful at full scale (T=50) and degrades to
  // full-schedule PLMS at quick scale (T=30).
  const std::vector<Config> configs = {
      {"ancestral s=5", {.num_samples = 5}},
      {"ancestral s=15", {.num_samples = 15}},
      {"ddim s=5", {.num_samples = 5, .sampler = SamplerKind::kDdim}},
      {"ddim s=15 steps=10",
       {.num_samples = 15, .sampler = SamplerKind::kDdim,
        .num_inference_steps = 10}},
      {"ddim s=15 steps=6",
       {.num_samples = 15, .sampler = SamplerKind::kDdim,
        .num_inference_steps = 6}},
      {"plms s=15 steps=5",
       {.num_samples = 15, .sampler = SamplerKind::kPlms,
        .num_inference_steps = 5}},
      {"plms s=15 steps=10",
       {.num_samples = 15, .sampler = SamplerKind::kPlms,
        .num_inference_steps = 10}},
      {"plms s=15 steps=20",
       {.num_samples = 15, .sampler = SamplerKind::kPlms,
        .num_inference_steps = 20}},
      {"plms s=15 steps=50",
       {.num_samples = 15, .sampler = SamplerKind::kPlms,
        .num_inference_steps = 50}},
  };
  TablePrinter table({"sampler", "MAE", "MSE", "seconds", "seed"});
  for (const Config& config : configs) {
    model->set_impute_options(config.impute);
    Rng run_rng = fit.rng;
    Stopwatch watch;
    eval::MethodResult result =
        eval::EvaluateFittedImputer(model, paper.Task(setting), run_rng);
    double seconds = watch.ElapsedSeconds();
    std::printf("   %-20s MAE %.3f  MSE %.3f  (%.1fs)\n", config.name,
                result.mae, result.mse, seconds);
    std::fflush(stdout);
    table.AddRow({config.name, TablePrinter::Num(result.mae, 3),
                  TablePrinter::Num(result.mse, 3),
                  TablePrinter::Num(seconds, 1),
                  std::to_string(setting.seed)});
  }
  model->set_impute_options(saved);
  return table;
}

// Extension (beyond the paper): robustness to missing-NOT-at-random data.
// Real sensors fail preferentially under extreme readings (saturation,
// icing, brownouts during pollution episodes). On the AQI series with point
// missing, the eval mask withholds 25% of the observed entries with a bias
// toward high values that grows with the severity. Expected shape: every
// method degrades as withholding concentrates on the rarer peak values;
// models with spatial context degrade more slowly than temporal
// interpolation.
TablePrinter ExtMnar(Paper& paper) {
  std::printf("== Extension: MNAR robustness on AQI-like (scale=%s) ==\n",
              paper.scale_name());
  const Setting& setting = kAqiFailure;
  const Scale& scale = paper.scale();
  const data::ImputationTask base =
      MakeTask(Preset::kAqi36, MissingPattern::kPoint, scale, setting.seed);
  TablePrinter table({"severity", "method", "MAE", "seed"});
  for (double severity : {0.0, 0.75, 1.5}) {
    data::ImputationTask task = base;
    Rng inject_rng(setting.seed + 3000);
    task.eval_mask = data::InjectValueDependentMissing(
        task.dataset.values, task.dataset.observed_mask, 0.25, severity,
        inject_rng);
    task.model_observed_mask =
        data::MaskMinus(task.dataset.observed_mask, task.eval_mask);
    std::printf("-- severity %.2f (withheld mean value bias)\n", severity);

    Rng build_rng(BuildSeed(setting));
    std::unique_ptr<Imputer> methods[] = {
        std::make_unique<baselines::LinearInterpImputer>(),
        std::make_unique<baselines::KnnImputer>(),
        std::make_unique<baselines::GrinImputer>(
            task.dataset.num_nodes, task.dataset.graph.adjacency,
            RecurrentOptionsFor(scale), build_rng),
        eval::MakePristiImputer(PristiConfigFor(task, scale),
                                task.dataset.graph.adjacency,
                                DiffusionOptionsFor(task, scale), build_rng)};
    for (auto& method : methods) {
      Rng run_rng = paper.FitFresh(method.get(), task, setting);
      eval::MethodResult result =
          eval::EvaluateFittedImputer(method.get(), task, run_rng);
      std::printf("   %-8s MAE %.3f\n", result.method.c_str(), result.mae);
      std::fflush(stdout);
      table.AddRow({TablePrinter::Num(severity, 2), result.method,
                    TablePrinter::Num(result.mae, 3),
                    std::to_string(setting.seed)});
    }
  }
  return table;
}

}  // namespace pristi::bench
