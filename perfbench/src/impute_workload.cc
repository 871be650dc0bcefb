// impute-pems325: offline imputation at PEMS-BAY-like N=325, L=24 with block
// missingness. Closed loop, one caller: each window runs DDPM ancestral
// sampling with 10 kept steps and S=8 chains, i.e. 10 PredictNoise calls at
// (8, 325, 24).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace pristi::perfbench {
namespace {

constexpr int64_t kNodes = 325;
constexpr int64_t kWindowLen = 24;
// 10 windows of series; the test split (last 20%) yields the 2 windows the
// loop cycles through.
constexpr int64_t kSeriesSteps = kWindowLen * 10;
constexpr int64_t kChains = 8;
constexpr int64_t kKeptSteps = 10;
constexpr int kSetupRepeats = 9;

diffusion::ImputeOptions WindowOptions() {
  diffusion::ImputeOptions options;
  options.num_samples = kChains;
  options.sampler = diffusion::SamplerKind::kDdpm;
  options.num_inference_steps = kKeptSteps;
  return options;
}

struct Setup {
  data::ImputationTask task;
  std::unique_ptr<core::PristiModel> model;
  std::vector<data::Sample> windows;
};

// Data generation, model build and warm-up: a first window cut to one kept
// step — one model call at the full (8, 325, 24) shape, which starts the
// thread pool, fills the pack cache and warms the buffer pool.
Setup BuildSetup(uint64_t seed) {
  Setup setup;
  setup.task = bench::MakeTask(
      bench::Preset::kPemsBay, data::MissingPattern::kBlock,
      PaperShapeScale(bench::Preset::kPemsBay, kNodes, kSeriesSteps,
                      kWindowLen),
      seed);
  setup.model = MakeBenchModel(setup.task, seed + 1);
  setup.windows = data::ExtractSamples(setup.task, "test");
  diffusion::ImputeOptions warm_up = WindowOptions();
  warm_up.num_inference_steps = 1;
  Rng rng(seed);
  diffusion::ImputeWindow(setup.model.get(), BenchSchedule(),
                          setup.windows.front(), warm_up, rng);
  return setup;
}

struct LoopResult {
  std::vector<double> window_s;
  int64_t windows = 0;
  double elapsed_s = 0;

  void Append(const LoopResult& other) {
    window_s.insert(window_s.end(), other.window_s.begin(),
                    other.window_s.end());
    windows += other.windows;
    elapsed_s += other.elapsed_s;
  }
};

// Imputes windows back to back until `seconds` have passed (at least
// `min_windows`), gating every result.
LoopResult RunLoop(diffusion::ConditionalNoisePredictor* predictor,
                   const Setup& setup, uint64_t seed, double seconds,
                   int64_t min_windows, Report* report) {
  diffusion::NoiseSchedule schedule = BenchSchedule();
  diffusion::ImputeOptions options = WindowOptions();
  LoopResult loop;
  int64_t start = NowNanos();
  while (loop.windows < min_windows ||
         static_cast<double>(NowNanos() - start) / 1e9 < seconds) {
    const data::Sample& window =
        setup.windows[static_cast<size_t>(loop.windows) %
                      setup.windows.size()];
    Rng rng(seed * 1000003 + static_cast<uint64_t>(loop.windows));
    int64_t t0 = NowNanos();
    diffusion::ImputationResult result =
        diffusion::ImputeWindow(predictor, schedule, window, options, rng);
    loop.window_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    ++loop.windows;
    report->Attempt();
    std::string problem = CheckImputation(window, result);
    if (!problem.empty()) report->Fail("impute window: " + problem);
  }
  loop.elapsed_s = static_cast<double>(NowNanos() - start) / 1e9;
  return loop;
}

double SamplesPerSecond(const LoopResult& loop) {
  return static_cast<double>(loop.windows * kChains) / loop.elapsed_s;
}

}  // namespace

void RunImputeWorkload(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t start = NowNanos();
    setup = BuildSetup(options.seed);
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  PrintSetupTimes(setup_s);
  std::printf("impute-pems325: N=%lld L=%lld S=%lld DDPM-%lld, %zu windows\n",
              static_cast<long long>(kNodes),
              static_cast<long long>(kWindowLen),
              static_cast<long long>(kChains),
              static_cast<long long>(kKeptSteps), setup.windows.size());

  if (!options.trace) {
    LoopResult loop = RunLoop(setup.model.get(), setup, options.seed,
                              options.seconds, 2, report);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_live_mb", PeakLiveMb(), "MB");
    report->Add("throughput_per_s", SamplesPerSecond(loop), "1/s");
    std::printf("impute window wall time over %lld windows: median %.1f ms\n",
                static_cast<long long>(loop.windows),
                Median(loop.window_s) * 1e3);
    return;
  }

  // Traced run: half the time through the timing decorator, between two
  // untraced quarters (the overhead reference), so host drift during the run
  // weighs on both alike.
  LoopResult bare = RunLoop(setup.model.get(), setup, options.seed,
                            options.seconds / 4, 1, report);
  TimingPredictor timed(setup.model.get());
  Counters before = Counters::Now();
  LoopResult traced = RunLoop(&timed, setup, options.seed,
                              options.seconds / 2, 2, report);
  Counters after = Counters::Now();
  bare.Append(RunLoop(setup.model.get(), setup, options.seed,
                      options.seconds / 4, 1, report));
  std::vector<Span> spans = timed.TakeSpans();

  std::vector<double> call_ms;
  std::vector<double> per_chain_ms;
  for (const Span& span : spans) {
    if (span.kind != Span::Kind::kPredictNoise) continue;
    call_ms.push_back(span.Millis());
    per_chain_ms.push_back(span.Millis() / static_cast<double>(span.batch));
  }
  double call_ms_p50 = Median(call_ms);
  double calls_per_window = static_cast<double>(call_ms.size()) /
                            static_cast<double>(traced.windows);
  if (call_ms.size() != static_cast<size_t>(traced.windows * kKeptSteps)) {
    report->Fail("impute: " + std::to_string(call_ms.size()) +
                 " model calls for " + std::to_string(traced.windows) +
                 " windows");
  }
  double sampler_self_ms =
      (Sum(traced.window_s) * 1e3 - Sum(call_ms)) /
      static_cast<double>(traced.windows * kKeptSteps);

  report->Add("workload.latency_ms", Median(bare.window_s) * 1e3, "ms");
  report->Add("pristi.predict_noise_ms_p50", call_ms_p50, "ms");
  report->Add("pristi.predict_noise_ms_per_chain", Median(per_chain_ms),
              "ms");
  report->Add("diffusion.model_calls_per_window", calls_per_window, "count");
  report->Add("diffusion.sampler_self_ms_per_step", sampler_self_ms, "ms");
  AddPerCallCounters(before, after, static_cast<int64_t>(call_ms.size()),
                     Sum(call_ms) / 1e3, report);
  AddDirectLayerMetrics(setup.model.get(), setup.task, kChains, call_ms_p50,
                        report);
  report->Add("trace_overhead_frac",
              SamplesPerSecond(bare) / SamplesPerSecond(traced) - 1.0,
              "ratio");
}

}  // namespace pristi::perfbench
