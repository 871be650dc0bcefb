// train-metr207: shard-parallel training at METR-LA-like N=207, L=24 with
// the hybrid mask strategy, batch 8 and 4 shards, repeating epochs over a
// fixed set of 16 training windows (two optimizer steps per epoch).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace pristi::perfbench {
namespace {

constexpr int64_t kNodes = 207;
constexpr int64_t kWindowLen = 24;
// 24 windows of series; the train split (first 70%) holds 16 of them.
constexpr int64_t kSeriesSteps = kWindowLen * 24;
constexpr int64_t kShards = 4;
constexpr int64_t kEpochsPerCall = 4;
constexpr int kSetupRepeats = 5;

diffusion::TrainOptions EpochOptions(int64_t epochs) {
  diffusion::TrainOptions options;
  options.epochs = epochs;
  options.batch_size = 8;
  options.lr = 1e-3f;
  options.mask_strategy = data::MaskStrategy::kHybrid;
  options.num_shards = kShards;
  return options;
}

struct Setup {
  data::ImputationTask task;
  std::unique_ptr<core::PristiModel> model;
  int64_t windows_per_epoch = 0;
};

struct LoopResult {
  std::vector<double> epoch_s;
  int64_t epochs = 0;
  int64_t windows = 0;
  double elapsed_s = 0;

  void Append(const LoopResult& other) {
    epoch_s.insert(epoch_s.end(), other.epoch_s.begin(), other.epoch_s.end());
    epochs += other.epochs;
    windows += other.windows;
    elapsed_s += other.elapsed_s;
  }
};

// Trains `predictor` in calls of kEpochsPerCall epochs until `seconds` have
// passed; epoch boundaries come from TrainOptions::on_epoch. Every epoch's
// loss must be finite.
LoopResult RunLoop(diffusion::ConditionalNoisePredictor* predictor,
                   const Setup& setup, uint64_t seed, double seconds,
                   Report* report) {
  diffusion::NoiseSchedule schedule = BenchSchedule();
  LoopResult loop;
  int64_t start = NowNanos();
  int64_t call = 0;
  while (loop.epochs == 0 ||
         static_cast<double>(NowNanos() - start) / 1e9 < seconds) {
    diffusion::TrainOptions options = EpochOptions(kEpochsPerCall);
    int64_t epoch_start = NowNanos();
    options.on_epoch = [&](int64_t, double loss) {
      int64_t now = NowNanos();
      loop.epoch_s.push_back(static_cast<double>(now - epoch_start) / 1e9);
      epoch_start = now;
      report->Attempt();
      if (!std::isfinite(loss)) report->Fail("train: non-finite epoch loss");
    };
    Rng rng(seed * 1000003 + static_cast<uint64_t>(call++));
    diffusion::TrainDiffusionModel(predictor, schedule, setup.task, options,
                                   rng);
    loop.epochs += kEpochsPerCall;
  }
  loop.elapsed_s = static_cast<double>(NowNanos() - start) / 1e9;
  loop.windows = loop.epochs * setup.windows_per_epoch;
  return loop;
}

// Data generation, model build and warm-up: the first epoch, which is
// markedly slower than the steady state (pool start, pack-cache fill).
Setup BuildSetup(uint64_t seed, Report* report) {
  Setup setup;
  setup.task = bench::MakeTask(
      bench::Preset::kMetrLa, data::MissingPattern::kBlock,
      PaperShapeScale(bench::Preset::kMetrLa, kNodes, kSeriesSteps,
                      kWindowLen),
      seed);
  setup.model = MakeBenchModel(setup.task, seed + 1);
  setup.windows_per_epoch = static_cast<int64_t>(
      data::ExtractSamples(setup.task, "train").size());
  Rng rng(seed);
  std::vector<double> losses = diffusion::TrainDiffusionModel(
      setup.model.get(), BenchSchedule(), setup.task, EpochOptions(1), rng);
  report->Attempt();
  if (losses.size() != 1 || !std::isfinite(losses[0])) {
    report->Fail("train: warm-up epoch loss");
  }
  return setup;
}

double WindowsPerSecond(const LoopResult& loop) {
  return static_cast<double>(loop.windows) / loop.elapsed_s;
}

}  // namespace

void RunTrainWorkload(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t start = NowNanos();
    setup = BuildSetup(options.seed, report);
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  PrintSetupTimes(setup_s);
  std::printf("train-metr207: N=%lld L=%lld batch 8, %lld shards, %lld "
              "windows per epoch\n",
              static_cast<long long>(kNodes),
              static_cast<long long>(kWindowLen),
              static_cast<long long>(kShards),
              static_cast<long long>(setup.windows_per_epoch));

  if (!options.trace) {
    LoopResult loop = RunLoop(setup.model.get(), setup, options.seed,
                              options.seconds, report);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_live_mb", PeakLiveMb(), "MB");
    report->Add("throughput_per_s", WindowsPerSecond(loop), "1/s");
    std::printf("train epoch wall time over %lld epochs: median %.1f ms\n",
                static_cast<long long>(loop.epochs),
                Median(loop.epoch_s) * 1e3);
    return;
  }

  // Half the time through the timing decorator, between two untraced
  // quarters (the overhead reference), so host drift during the run weighs
  // on both alike.
  LoopResult bare = RunLoop(setup.model.get(), setup, options.seed,
                            options.seconds / 4, report);
  TimingPredictor timed(setup.model.get());
  Counters before = Counters::Now();
  LoopResult traced =
      RunLoop(&timed, setup, options.seed, options.seconds / 2, report);
  Counters after = Counters::Now();
  bare.Append(RunLoop(setup.model.get(), setup, options.seed,
                      options.seconds / 4, report));
  std::vector<Span> spans = timed.TakeSpans();

  // Split the span stream into optimizer steps: a step's forward/backward
  // phase runs from its first PredictNoise to its ZeroGrad, and its
  // reduce/optimizer phase from that ZeroGrad to the next step's first
  // PredictNoise.
  std::vector<double> call_ms, fwd_bwd_ms, reduce_opt_ms;
  double busy_ms = 0, phase_ms = 0;
  int64_t calls = 0;
  int64_t first_call = -1;      // start of the current step's first call
  int64_t last_zero_grad = -1;  // start of the previous step's ZeroGrad
  double step_busy_ms = 0;
  for (const Span& span : spans) {
    if (span.kind == Span::Kind::kPredictNoise) {
      ++calls;
      call_ms.push_back(span.Millis());
      if (first_call < 0) {
        first_call = span.start_nanos;
        if (last_zero_grad >= 0) {
          reduce_opt_ms.push_back(
              static_cast<double>(span.start_nanos - last_zero_grad) / 1e6);
        }
      }
      step_busy_ms += span.Millis();
      continue;
    }
    if (first_call < 0) continue;  // ZeroGrad outside a step
    double phase = static_cast<double>(span.start_nanos - first_call) / 1e6;
    fwd_bwd_ms.push_back(phase);
    phase_ms += phase;
    busy_ms += step_busy_ms;
    step_busy_ms = 0;
    first_call = -1;
    last_zero_grad = span.start_nanos;
  }
  if (calls != traced.windows) {
    report->Fail("train: " + std::to_string(calls) + " model calls for " +
                 std::to_string(traced.windows) + " windows");
  }
  double call_ms_p50 = Median(call_ms);
  report->Add("workload.latency_ms", Median(bare.epoch_s) * 1e3, "ms");
  report->Add("pristi.predict_noise_ms_p50", call_ms_p50, "ms");
  report->Add("pristi.predict_noise_ms_per_chain", call_ms_p50, "ms");
  report->Add("diffusion.model_calls_per_window",
              static_cast<double>(calls) /
                  static_cast<double>(std::max<int64_t>(traced.windows, 1)),
              "count");
  report->Add("diffusion.train_fwd_bwd_ms_per_step", Median(fwd_bwd_ms),
              "ms");
  report->Add("diffusion.train_reduce_opt_ms_per_step",
              reduce_opt_ms.empty() ? 0.0 : Median(reduce_opt_ms), "ms");
  report->Add("diffusion.train_forward_busy_frac",
              busy_ms / (static_cast<double>(kShards) * phase_ms), "ratio");
  // Forward and backward GEMMs of concurrent shards overlap, so the rate is
  // taken over the traced phase's wall time.
  AddPerCallCounters(before, after, calls, traced.elapsed_s, report);
  AddDirectLayerMetrics(setup.model.get(), setup.task, 1, call_ms_p50,
                        report);
  report->Add("trace_overhead_frac",
              WindowsPerSecond(bare) / WindowsPerSecond(traced) - 1.0,
              "ratio");
}

}  // namespace pristi::perfbench
