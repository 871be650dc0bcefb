// Tables III–VI of the paper.
//
// Absolute values are not comparable to the paper (synthetic data, reduced
// scale — see DESIGN.md); the reproduction criteria are the shapes each
// function's comment names.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "eval/forecaster.h"
#include "paper.h"

namespace pristi::bench {

// Table III: MAE and MSE of every method on the five settings. Expected
// ORDERING: statistics < factorization < RNN (BRITS) < graph RNN (GRIN) <
// diffusion (CSDI) <= PriSTI, with a larger PriSTI-vs-CSDI gap under block
// missing.
TablePrinter Table3(Paper& paper) {
  std::printf("== Table III: overall MAE / MSE (scale=%s) ==\n",
              paper.scale_name());
  TablePrinter table({"dataset", "pattern", "missing%", "method", "MAE",
                      "MSE", "seed"});
  for (const Setting& setting : kSettings) {
    const data::ImputationTask& task = paper.Task(setting);
    double withheld =
        data::MaskRate(task.eval_mask) /
        std::max(data::MaskRate(task.dataset.observed_mask), 1e-9);
    std::printf("-- %s / %s (withheld %.1f%% of observed)\n",
                PresetName(setting.preset),
                data::MissingPatternName(setting.pattern), 100.0 * withheld);
    for (const std::string& name : paper.MethodNames(setting)) {
      Fitted fit = paper.Fit(setting, name);
      eval::MethodResult result =
          eval::EvaluateFittedImputer(fit.model, task, fit.rng);
      std::printf("   %-8s MAE %.3f  MSE %.3f  (fit %.1fs, impute %.1fs)\n",
                  name.c_str(), result.mae, result.mse, fit.fit_seconds,
                  result.impute_seconds);
      std::fflush(stdout);
      table.AddRow({PresetName(setting.preset),
                    data::MissingPatternName(setting.pattern),
                    TablePrinter::Num(100.0 * withheld, 1), name,
                    TablePrinter::Num(result.mae, 3),
                    TablePrinter::Num(result.mse, 3),
                    std::to_string(setting.seed)});
    }
  }
  return table;
}

// Table IV: CRPS of the probabilistic methods on Table III's fits. CRPS is
// the normalized variant of the CSDI implementation (metrics/metrics.h).
// Expected shape: diffusion models far below the VAE methods, PriSTI
// matching or beating CSDI in every column.
TablePrinter Table4(Paper& paper) {
  std::printf("== Table IV: CRPS (scale=%s, %lld samples) ==\n",
              paper.scale_name(),
              static_cast<long long>(paper.scale().crps_samples));
  eval::EvaluateOptions options;
  options.crps_samples = paper.scale().crps_samples;
  TablePrinter table({"dataset", "pattern", "method", "CRPS", "seed"});
  for (const Setting& setting : kSettings) {
    std::printf("-- %s / %s\n", PresetName(setting.preset),
                data::MissingPatternName(setting.pattern));
    for (const char* name : {"V-RIN", "GP-VAE", "CSDI", "PriSTI"}) {
      Fitted fit = paper.Fit(setting, name);
      eval::MethodResult result = eval::EvaluateFittedImputer(
          fit.model, paper.Task(setting), fit.rng, options);
      std::printf("   %-8s CRPS %.4f\n", name, result.crps);
      std::fflush(stdout);
      table.AddRow({PresetName(setting.preset),
                    data::MissingPatternName(setting.pattern), name,
                    TablePrinter::Num(result.crps, 4),
                    std::to_string(setting.seed)});
    }
  }
  return table;
}

// Table V: forecasting on the imputed AQI series. BRITS, GRIN, CSDI and
// PriSTI each complete the full series; the same Graph-WaveNet-lite
// forecaster (12 steps -> 12 steps) is trained on each completed series and
// scored against ground truth. "Ori." trains on the raw feed with missing
// entries filled by the node mean. Expected shape: forecast error tracks
// imputation quality — Ori. worst, PriSTI best.
TablePrinter Table5(Paper& paper) {
  std::printf("== Table V: downstream forecasting on imputed AQI "
              "(scale=%s) ==\n",
              paper.scale_name());
  const Setting& setting = kAqiFailure;
  const data::ImputationTask& task = paper.Task(setting);
  const tensor::Tensor& ground_truth = task.dataset.values;

  eval::ForecastOptions forecast_options;
  forecast_options.input_len = 12;
  forecast_options.horizon = 12;
  forecast_options.epochs = paper.scale().full ? 60 : 15;

  TablePrinter table({"imputer", "forecast MAE", "forecast RMSE", "seed"});
  auto run_forecast = [&](const std::string& name,
                          const tensor::Tensor& completed) {
    Rng forecast_rng(999);  // identical forecaster init per imputer
    eval::ForecastResult result = eval::TrainAndEvaluateForecaster(
        completed, task.dataset.graph, ground_truth, forecast_options,
        forecast_rng);
    std::printf("   %-8s MAE %.3f  RMSE %.3f\n", name.c_str(), result.mae,
                result.rmse);
    std::fflush(stdout);
    table.AddRow({name, TablePrinter::Num(result.mae, 3),
                  TablePrinter::Num(result.rmse, 3),
                  std::to_string(setting.seed)});
  };

  // Ori.: raw feed, missing entries filled with the node training mean.
  tensor::Tensor raw = ground_truth;
  for (int64_t step = 0; step < task.dataset.num_steps; ++step) {
    for (int64_t node = 0; node < task.dataset.num_nodes; ++node) {
      if (task.model_observed_mask.at({step, node}) < 0.5f) {
        raw.at({step, node}) = static_cast<float>(task.normalizer.mean(node));
      }
    }
  }
  run_forecast("Ori.", raw);

  for (const char* name : {"BRITS", "GRIN", "CSDI", "PriSTI"}) {
    Fitted fit = paper.Fit(setting, name);
    run_forecast(name, eval::ImputeSeries(fit.model, task, fit.rng));
  }
  return table;
}

// Table VI: ablation of PriSTI's components (paper Sec. IV-E3) on the AQI
// (simulated failure) and METR-LA (block and point) settings:
//   mix-STI  — no interpolation, no conditional feature module
//   w/o CF   — interpolation kept, conditional-feature attention removed
//   w/o spa  — spatial dependency module removed
//   w/o tem  — temporal dependency module removed
//   w/o MPNN — message passing removed from gamma_S
//   w/o Attn — spatial global attention removed from gamma_S
// The unablated row is Table III's PriSTI fit. Expected shape: full PriSTI
// best; removing tem or spa hurts most; mix-STI / w/o CF / w/o MPNN /
// w/o Attn cost a smaller margin.
TablePrinter Table6(Paper& paper) {
  struct Variant {
    const char* name;
    std::function<void(core::PristiConfig&)> apply;
  };
  const std::vector<Variant> variants = {
      {"mix-STI",
       [](core::PristiConfig& c) {
         c.use_interpolation = false;
         c.use_conditional_feature = false;
       }},
      {"w/o CF",
       [](core::PristiConfig& c) { c.use_conditional_feature = false; }},
      {"w/o spa",
       [](core::PristiConfig& c) {
         c.use_mpnn = false;
         c.use_spatial_attention = false;
       }},
      {"w/o tem", [](core::PristiConfig& c) { c.use_temporal = false; }},
      {"w/o MPNN", [](core::PristiConfig& c) { c.use_mpnn = false; }},
      {"w/o Attn",
       [](core::PristiConfig& c) { c.use_spatial_attention = false; }},
  };
  std::printf("== Table VI: ablation study (scale=%s) ==\n",
              paper.scale_name());
  TablePrinter table({"dataset", "pattern", "variant", "MAE", "seed"});
  for (const Setting& setting : {kAqiFailure, kMetrBlock, kMetrPoint}) {
    const data::ImputationTask& task = paper.Task(setting);
    std::printf("-- %s / %s\n", PresetName(setting.preset),
                data::MissingPatternName(setting.pattern));
    auto add_row = [&](const char* name, const eval::MethodResult& result) {
      std::printf("   %-9s MAE %.3f\n", name, result.mae);
      std::fflush(stdout);
      table.AddRow({PresetName(setting.preset),
                    data::MissingPatternName(setting.pattern), name,
                    TablePrinter::Num(result.mae, 3),
                    std::to_string(setting.seed)});
    };
    for (const Variant& variant : variants) {
      core::PristiConfig config = PristiConfigFor(task, paper.scale());
      variant.apply(config);
      Rng build_rng(BuildSeed(setting));  // same init per variant
      auto model = eval::MakePristiImputer(
          config, task.dataset.graph.adjacency,
          DiffusionOptionsFor(task, paper.scale()), build_rng, variant.name);
      Rng run_rng = paper.FitFresh(model.get(), task, setting);
      add_row(variant.name,
              eval::EvaluateFittedImputer(model.get(), task, run_rng));
    }
    Fitted fit = paper.Fit(setting, "PriSTI");
    add_row("PriSTI", eval::EvaluateFittedImputer(fit.model, task, fit.rng));
  }
  return table;
}

}  // namespace pristi::bench
