// serve-aqi36: serving at AQI-36-like N=36, L=36. A ServeSession with the
// default batching policy (max_batch 8, 5 ms, queue 64) first receives
// seeded Poisson arrivals at a fixed rate from one generator thread, with one
// collector thread waiting on the futures (the open-loop pass: latency and
// the correctness gates). Then it receives back-to-back bursts of requests
// that keep every batch full (the capacity pass: the throughput figure).
// Every request asks for S=2 samples with a per-request sampler override:
// DDIM-10 or PLMS-5.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session.h"
#include "workloads.h"

namespace pristi::perfbench {
namespace {

constexpr int64_t kNodes = 36;
constexpr int64_t kWindowLen = 36;
constexpr int64_t kSeriesSteps = kWindowLen * 40;
constexpr int64_t kChains = 2;
// Set-up here is short (~0.6 s) and made of small parallel regions, so one
// host hiccup moves it a lot; nine repetitions keep its median steady.
constexpr int kSetupRepeats = 9;

// Offered load of the open-loop pass and the latency limit of its printed
// goodput; BENCHMARK.json records both.
constexpr double kRatePerSecond = 1.0;
constexpr double kLatencyLimitMs = 2000.0;
// Share of --seconds given to the open-loop pass; the capacity pass gets the
// rest.
constexpr double kOpenLoopShare = 0.3;
// Requests per capacity burst: one full batch, alternately DDIM-10 and
// PLMS-5, so it splits into two sampler groups of four requests.
constexpr int64_t kBurstRequests = 8;
// Responses recomputed solo through ImputeWindow after timing.
constexpr int64_t kRecomputed = 4;

struct RequestPlan {
  size_t window = 0;
  uint64_t seed = 0;
  diffusion::SamplerKind sampler = diffusion::SamplerKind::kDdim;
  int64_t steps = 10;
};

// The arrival trace — due times and the sampler of each request — is one
// fixed seeded Poisson trace, identical in every run, so every run offers
// the same load pattern and the latency numbers compare runs, not traces.
// The run seed picks each request's window and determinism seed.
constexpr uint64_t kTraceSeed = 0x5e12e;

// Exactly half of the requests (a seeded half of the trace) run PLMS-5, the
// rest DDIM-10.
std::vector<RequestPlan> PlanRequests(uint64_t run_seed, size_t count,
                                      size_t windows) {
  Rng trace(kTraceSeed);
  std::vector<int64_t> order = trace.Permutation(static_cast<int64_t>(count));
  Rng rng(run_seed);
  std::vector<RequestPlan> plans(count);
  for (size_t i = 0; i < count; ++i) {
    RequestPlan& plan = plans[i];
    plan.window = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(windows) - 1));
    plan.seed = rng.engine()();
    if (order[i] < static_cast<int64_t>(count / 2)) {
      plan.sampler = diffusion::SamplerKind::kPlms;
      plan.steps = 5;
    }
  }
  return plans;
}

diffusion::ImputeOptions SoloOptions(const RequestPlan& plan) {
  diffusion::ImputeOptions options;
  options.num_samples = kChains;
  options.sampler = plan.sampler;
  options.num_inference_steps = plan.steps;
  return options;
}

struct Setup {
  data::ImputationTask task;
  std::shared_ptr<core::PristiModel> model;
  std::vector<data::Sample> windows;
};

Setup BuildTaskAndModel(uint64_t seed) {
  Setup setup;
  setup.task = bench::MakeTask(
      bench::Preset::kAqi36, data::MissingPattern::kSimulatedFailure,
      PaperShapeScale(bench::Preset::kAqi36, kNodes, kSeriesSteps,
                      kWindowLen),
      seed);
  setup.model = MakeBenchModel(setup.task, seed + 1);
  setup.windows = data::ExtractSamples(setup.task, "test");
  return setup;
}

std::unique_ptr<serve::ServeSession> StartSession(
    std::shared_ptr<diffusion::ConditionalNoisePredictor> predictor,
    nn::Module* module) {
  serve::ServeConfig config;  // default batching policy
  config.num_nodes = kNodes;
  config.window_len = kWindowLen;
  config.impute.num_samples = kChains;
  config.impute.sampler = diffusion::SamplerKind::kDdim;
  config.impute.num_inference_steps = 10;
  return std::make_unique<serve::ServeSession>(
      serve::ModelSlot{std::move(predictor), module}, nullptr,
      BenchSchedule(), config);
}

serve::ImputeRequest MakeRequest(const Setup& setup, const RequestPlan& plan) {
  serve::ImputeRequest request;
  request.window = setup.windows[plan.window];
  request.seed = plan.seed;
  request.sampler = plan.sampler;
  request.num_inference_steps = plan.steps;
  return request;
}

// Warm-up: one request of each sampler through the session, solo.
void WarmUp(serve::ServeSession* session, const Setup& setup) {
  for (diffusion::SamplerKind kind :
       {diffusion::SamplerKind::kDdim, diffusion::SamplerKind::kPlms}) {
    RequestPlan plan;
    plan.sampler = kind;
    plan.steps = kind == diffusion::SamplerKind::kPlms ? 5 : 10;
    session->Submit(MakeRequest(setup, plan)).get();
  }
}

struct Outcome {
  RequestPlan plan;
  serve::ImputeResponse response;
  double latency_ms = 0;  // from the due time to completion
  double lag_ms = 0;      // generator lateness: send time - due time
};

struct Pass {
  std::vector<Outcome> outcomes;
  double span_s = 0;  // first due time (burst: first submission) -> last
                      // completion
};

// One open-loop pass: rate * seconds arrivals over `seconds`.
Pass RunOpenLoopPass(serve::ServeSession* session,
                               const Setup& setup, uint64_t seed,
                               double seconds, double rate) {
  int64_t count = std::max<int64_t>(
      1, static_cast<int64_t>(rate * seconds + 0.5));
  std::vector<double> due = PoissonSchedule(kTraceSeed, count, seconds);
  std::vector<RequestPlan> plans =
      PlanRequests(seed, due.size(), setup.windows.size());

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<serve::ImputeResponse>> pending;
  std::vector<int64_t> sent(due.size(), 0);
  Pass result;
  result.outcomes.resize(due.size());
  Clock* clock = RealClock();
  // The generator starts a little after the collector is up.
  int64_t start = clock->NowNanos() + 5'000'000;

  std::thread collector([&] {
    for (size_t i = 0; i < due.size(); ++i) {
      std::future<serve::ImputeResponse> future;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty(); });
        future = std::move(pending.front());
        pending.pop_front();
      }
      Outcome& outcome = result.outcomes[i];
      outcome.plan = plans[i];
      outcome.response = future.get();
      int64_t sent_nanos;
      {
        std::lock_guard<std::mutex> lock(mu);
        sent_nanos = sent[i];
      }
      outcome.lag_ms = LatencyFromDueMs(start, due[i], sent_nanos);
      // A failed or rejected request never completes: it misses every limit.
      outcome.latency_ms =
          outcome.response.status.ok()
              ? LatencyFromDueMs(start, due[i],
                                 sent_nanos + outcome.response.total_nanos)
              : std::numeric_limits<double>::infinity();
    }
  });
  std::thread generator([&] {
    RunOpenLoop(
        due, start, clock,
        [&](size_t i) {
          int64_t now = clock->NowNanos();
          std::future<serve::ImputeResponse> future =
              session->Submit(MakeRequest(setup, plans[i]));
          std::lock_guard<std::mutex> lock(mu);
          sent[i] = now;
          pending.push_back(std::move(future));
          cv.notify_one();
        },
        nullptr);
  });
  generator.join();
  collector.join();
  double last_done_s = due.back();
  for (size_t i = 0; i < due.size(); ++i) {
    if (!result.outcomes[i].response.status.ok()) continue;
    last_done_s = std::max(
        last_done_s, due[i] + result.outcomes[i].latency_ms / 1e3);
  }
  result.span_s = last_done_s - due.front();
  return result;
}

// One capacity burst: kBurstRequests requests submitted back to back, so the
// session runs full batches without a pause. The run seed picks each
// request's window and determinism seed.
Pass RunBurst(serve::ServeSession* session, const Setup& setup,
              uint64_t seed) {
  Rng rng(seed);
  std::vector<RequestPlan> plans(kBurstRequests);
  std::vector<serve::ImputeRequest> requests;
  for (int64_t i = 0; i < kBurstRequests; ++i) {
    RequestPlan& plan = plans[static_cast<size_t>(i)];
    plan.window = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(setup.windows.size()) - 1));
    plan.seed = rng.engine()();
    if (i % 2 == 1) {
      plan.sampler = diffusion::SamplerKind::kPlms;
      plan.steps = 5;
    }
    requests.push_back(MakeRequest(setup, plan));
  }
  std::vector<std::future<serve::ImputeResponse>> futures;
  int64_t start = NowNanos();
  for (serve::ImputeRequest& request : requests) {
    futures.push_back(session->Submit(std::move(request)));
  }
  Pass burst;
  for (size_t i = 0; i < futures.size(); ++i) {
    Outcome outcome;
    outcome.plan = plans[i];
    outcome.response = futures[i].get();
    burst.outcomes.push_back(std::move(outcome));
  }
  burst.span_s = static_cast<double>(NowNanos() - start) / 1e9;
  return burst;
}

// The capacity pass: bursts back to back until the next one would overrun
// `seconds` (at least two).
std::vector<Pass> RunCapacityPass(serve::ServeSession* session,
                                  const Setup& setup, uint64_t seed,
                                  double seconds) {
  std::vector<Pass> bursts;
  double used_s = 0;
  while (bursts.size() < 2 || used_s + bursts.back().span_s <= seconds) {
    bursts.push_back(
        RunBurst(session, setup, seed * 1000003 + bursts.size()));
    used_s += bursts.back().span_s;
  }
  return bursts;
}

// The session's capacity with full batches of the sampler mix: the median
// over bursts of requests completed per second of burst time.
double Capacity(const std::vector<Pass>& bursts) {
  std::vector<double> rates;
  for (const Pass& burst : bursts) {
    rates.push_back(static_cast<double>(burst.outcomes.size()) /
                    burst.span_s);
  }
  return Median(rates);
}

// Every outcome of the open-loop pass and the bursts, for the gates.
Pass AllOutcomes(const Pass& open_loop, const std::vector<Pass>& bursts) {
  Pass all = open_loop;
  for (const Pass& burst : bursts) {
    all.outcomes.insert(all.outcomes.end(), burst.outcomes.begin(),
                        burst.outcomes.end());
  }
  return all;
}

// Gates every outcome (ok status, observed entries pass through, finite) and
// recomputes a seeded subset solo through ImputeWindow, which must match
// bitwise (the serve determinism contract).
void CheckOutcomes(const Pass& pass, const Setup& setup,
                   uint64_t seed, Report* report) {
  for (const Outcome& outcome : pass.outcomes) {
    report->Attempt();
    if (!outcome.response.status.ok()) {
      report->Fail("serve status: " + outcome.response.status.ToString());
      continue;
    }
    std::string problem =
        CheckImputation(setup.windows[outcome.plan.window],
                        outcome.response.result);
    if (!problem.empty()) report->Fail("serve response: " + problem);
  }
  Rng pick(seed);
  diffusion::NoiseSchedule schedule = BenchSchedule();
  for (int64_t k = 0; k < kRecomputed; ++k) {
    const Outcome& outcome = pass.outcomes[static_cast<size_t>(pick.UniformInt(
        0, static_cast<int64_t>(pass.outcomes.size()) - 1))];
    if (!outcome.response.status.ok()) continue;  // already failed above
    report->Attempt();
    Rng rng(outcome.plan.seed);
    diffusion::ImputationResult solo = diffusion::ImputeWindow(
        setup.model.get(), schedule, setup.windows[outcome.plan.window],
        SoloOptions(outcome.plan), rng);
    if (!SameBits(solo, outcome.response.result)) {
      report->Fail("served response differs from its solo recompute");
    }
  }
}

std::vector<double> Latencies(const Pass& pass) {
  std::vector<double> ms;
  for (const Outcome& outcome : pass.outcomes) ms.push_back(outcome.latency_ms);
  return ms;
}

double MeanLatency(const Pass& pass) {
  std::vector<double> ms = Latencies(pass);
  return Sum(ms) / static_cast<double>(ms.size());
}

// Requests of an open-loop pass completed ok within the latency limit, per
// second from the first due time to the last completion.
double Goodput(const Pass& pass) {
  int64_t good = 0;
  for (const Outcome& outcome : pass.outcomes) {
    if (outcome.response.status.ok() &&
        outcome.latency_ms <= kLatencyLimitMs) {
      ++good;
    }
  }
  return static_cast<double>(good) / pass.span_s;
}

// Prints mean, guarded p50/p90 and max latency of an open-loop pass, and its
// goodput.
void PrintOpenLoop(const Pass& pass) {
  std::vector<double> ms = Latencies(pass);
  std::optional<double> p50 = Percentile(ms, 0.5);
  std::optional<double> p90 = Percentile(ms, 0.9);
  auto text = [](std::optional<double> v) {
    return v ? std::to_string(*v) + " ms" : std::string("n/a (too few)");
  };
  std::printf("open-loop latency from due time over %zu requests: mean "
              "%.1f ms, p50 %s, p90 %s, max %.1f ms; goodput within "
              "%.0f ms %.3f req/s\n",
              ms.size(), MeanLatency(pass), text(p50).c_str(),
              text(p90).c_str(), *std::max_element(ms.begin(), ms.end()),
              kLatencyLimitMs, Goodput(pass));
}

// Median of `values`, or its guarded p50 when enough samples exist: a pass
// of fewer than 20 requests has no guarded p50, and the plain median of so
// few fixed-work requests is still a fair centre.
double CentreOf(const std::vector<double>& values) {
  std::optional<double> p50 = Percentile(values, 0.5);
  return p50 ? *p50 : Median(values);
}

}  // namespace

void RunServeWorkload(const RunOptions& options, Report* report) {
  const double rate = kRatePerSecond;
  std::vector<double> setup_s;
  Setup setup;
  std::unique_ptr<serve::ServeSession> session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t start = NowNanos();
    session.reset();
    setup = BuildTaskAndModel(options.seed);
    session = StartSession(setup.model, setup.model.get());
    WarmUp(session.get(), setup);
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  PrintSetupTimes(setup_s);
  const double open_loop_s = options.seconds * kOpenLoopShare;
  const double capacity_s = options.seconds - open_loop_s;
  std::printf("serve-aqi36: N=%lld L=%lld S=%lld, DDIM-10/PLMS-5 mix, "
              "%.2f req/s open loop for %.1f s, latency limit %.0f ms, "
              "then bursts of %lld requests for %.1f s\n",
              static_cast<long long>(kNodes),
              static_cast<long long>(kWindowLen),
              static_cast<long long>(kChains), rate, open_loop_s,
              kLatencyLimitMs, static_cast<long long>(kBurstRequests),
              capacity_s);

  if (!options.trace) {
    Pass open_loop = RunOpenLoopPass(session.get(), setup, options.seed,
                                     open_loop_s, rate);
    std::vector<Pass> bursts =
        RunCapacityPass(session.get(), setup, options.seed, capacity_s);
    session.reset();  // drains; the model is ours again
    CheckOutcomes(AllOutcomes(open_loop, bursts), setup, options.seed,
                  report);
    PrintOpenLoop(open_loop);
    std::printf("capacity over %zu bursts: %.3f req/s; burst spans:",
                bursts.size(), Capacity(bursts));
    for (const Pass& burst : bursts) std::printf(" %.3f s", burst.span_s);
    std::printf("\n");
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_live_mb", PeakLiveMb(), "MB");
    report->Add("throughput_per_s", Capacity(bursts), "1/s");
    return;
  }

  // Traced run: the same two passes through a session serving the timing
  // decorator.
  session.reset();
  auto timed = std::make_shared<TimingPredictor>(setup.model.get());
  session = StartSession(timed, nullptr);
  WarmUp(session.get(), setup);
  timed->TakeSpans();
  Pass open_loop = RunOpenLoopPass(session.get(), setup, options.seed,
                                   open_loop_s, rate);
  std::vector<Span> open_loop_spans = timed->TakeSpans();
  serve::ServeSession::Stats stats_before = session->stats();
  std::vector<Pass> bursts =
      RunCapacityPass(session.get(), setup, options.seed, capacity_s);
  serve::ServeSession::Stats stats_after = session->stats();
  session.reset();
  std::vector<Span> burst_spans = timed->TakeSpans();
  Pass all = AllOutcomes(open_loop, bursts);
  CheckOutcomes(all, setup, options.seed, report);

  // Model calls of the open loop: mostly solo requests (B = S = 2).
  std::vector<double> call_ms, per_chain_ms;
  for (const Span& span : open_loop_spans) {
    call_ms.push_back(span.Millis());
    per_chain_ms.push_back(span.Millis() / static_cast<double>(span.batch));
  }
  // Batches of the capacity pass, the regime behind throughput_per_s.
  double batches =
      std::max(1.0, static_cast<double>(stats_after.batches -
                                        stats_before.batches));
  double burst_requests = 0;
  for (const Pass& burst : bursts) {
    burst_requests += static_cast<double>(burst.outcomes.size());
  }
  double burst_call_ms = 0;
  int64_t chain_starts = 0;
  const int64_t first_step = BenchSchedule().num_steps();
  for (const Span& span : burst_spans) {
    burst_call_ms += span.Millis();
    // Every reverse chain (one per sampler group of a batch) starts at t=T.
    if (span.step == first_step) ++chain_starts;
  }
  std::vector<double> queue_ms;
  for (const Outcome& outcome : open_loop.outcomes) {
    queue_ms.push_back(static_cast<double>(outcome.response.queue_nanos) /
                       1e6);
  }
  int64_t rejected = 0;
  for (const Outcome& outcome : all.outcomes) {
    if (!outcome.response.status.ok()) ++rejected;
  }
  double gen_lag_max = 0;
  for (const Outcome& outcome : open_loop.outcomes) {
    gen_lag_max = std::max(gen_lag_max, outcome.lag_ms);
  }
  report->Add("workload.latency_ms", CentreOf(Latencies(open_loop)), "ms");
  double call_ms_p50 = Median(call_ms);
  report->Add("pristi.predict_noise_ms_p50", call_ms_p50, "ms");
  report->Add("pristi.predict_noise_ms_per_chain", Median(per_chain_ms),
              "ms");
  report->Add("serve.queue_wait_ms_p50", CentreOf(queue_ms), "ms");
  report->Add("serve.batch_size_mean", burst_requests / batches, "count");
  report->Add("serve.groups_per_batch",
              static_cast<double>(chain_starts) / batches, "count");
  report->Add("serve.model_ms_per_batch", burst_call_ms / batches, "ms");
  report->Add("serve.rejected", static_cast<double>(rejected), "count");
  report->Add("serve.gen_lag_ms_max", gen_lag_max, "ms");

  // Solo PLMS-5 windows through the decorator: model calls per window, the
  // sampler's own time per kept step, and the per-call counters (a fixed
  // call shape, so the counts repeat exactly).
  TimingPredictor probe(setup.model.get());
  RequestPlan plms;
  plms.sampler = diffusion::SamplerKind::kPlms;
  plms.steps = 5;
  auto solo_window = [&](diffusion::ConditionalNoisePredictor* predictor,
                         uint64_t seed) {
    Rng rng(seed);
    int64_t start = NowNanos();
    diffusion::ImputationResult result = diffusion::ImputeWindow(
        predictor, BenchSchedule(), setup.windows[0], SoloOptions(plms), rng);
    double ms = static_cast<double>(NowNanos() - start) / 1e6;
    report->Attempt();
    std::string problem = CheckImputation(setup.windows[0], result);
    if (!problem.empty()) report->Fail("serve probe: " + problem);
    return ms;
  };
  constexpr int kProbeWindows = 3;
  Counters before = Counters::Now();
  double window_ms = 0;
  for (int i = 0; i < kProbeWindows; ++i) {
    window_ms += solo_window(&probe, options.seed + static_cast<uint64_t>(i));
  }
  Counters after = Counters::Now();
  std::vector<double> probe_ms;
  for (const Span& span : probe.TakeSpans()) probe_ms.push_back(span.Millis());
  report->Add("diffusion.model_calls_per_window",
              static_cast<double>(probe_ms.size()) / kProbeWindows, "count");
  report->Add("diffusion.sampler_self_ms_per_step",
              (window_ms - Sum(probe_ms)) / (kProbeWindows * plms.steps),
              "ms");
  AddPerCallCounters(before, after, static_cast<int64_t>(probe_ms.size()),
                     Sum(probe_ms) / 1e3, report);
  AddDirectLayerMetrics(setup.model.get(), setup.task, kChains, call_ms_p50,
                        report);

  // Tracing overhead on fixed work: solo PLMS-5 windows, bare and through the
  // decorator in the order bare, timed, timed, bare (twice), so host drift
  // during the comparison weighs on both alike.
  constexpr int kOverheadWindows = 8;
  double bare_ms = 0, timed_ms = 0;
  for (int i = 0; i < kOverheadWindows; ++i) {
    uint64_t seed = options.seed + static_cast<uint64_t>(i / 2);
    if (i % 4 == 1 || i % 4 == 2) {
      timed_ms += solo_window(&probe, seed);
    } else {
      bare_ms += solo_window(setup.model.get(), seed);
    }
  }
  PrintOpenLoop(open_loop);
  report->Add("trace_overhead_frac", timed_ms / bare_ms - 1.0, "ratio");
}

}  // namespace pristi::perfbench
