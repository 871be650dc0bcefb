#include "workload_common.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "eval/harness.h"

namespace pristi::perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::Fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // A non-finite value is not valid JSON; it can only come from a broken
    // measurement, which the run already reports as a failure.
    double value = std::isfinite(m.value) ? m.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void AddNotApplicableLayers(Report* report) {
  // Per-layer metrics that only some workloads exercise.
  static const char* const kLayerOnly[][2] = {
      {"diffusion.sampler_self_ms_per_step", "ms"},
      {"diffusion.train_fwd_bwd_ms_per_step", "ms"},
      {"diffusion.train_reduce_opt_ms_per_step", "ms"},
      {"diffusion.train_forward_busy_frac", "ratio"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.groups_per_batch", "count"},
      {"serve.model_ms_per_batch", "ms"},
      {"serve.rejected", "count"},
      {"serve.gen_lag_ms_max", "ms"},
  };
  for (const auto& metric : kLayerOnly) {
    if (!report->Has(metric[0])) report->Add(metric[0], 0.0, metric[1]);
  }
}

Counters Counters::Now() {
  return Counters{tensor::GetAllocStats(), tensor::kernels::GetKernelStats()};
}

void AddPerCallCounters(const Counters& before, const Counters& after,
                        int64_t calls, double call_seconds, Report* report) {
  double n = static_cast<double>(calls > 0 ? calls : 1);
  const auto& kb = before.kernel;
  const auto& ka = after.kernel;
  double flops = static_cast<double>(ka.flops - kb.flops);
  double hits = static_cast<double>(ka.pack_cache_hits - kb.pack_cache_hits);
  double lookups =
      hits + static_cast<double>(ka.pack_cache_misses - kb.pack_cache_misses);
  report->Add("kernels.gemm_calls_per_call",
              static_cast<double>(ka.gemm_calls - kb.gemm_calls) / n,
              "count");
  report->Add("kernels.gemm_gflop_per_call", flops / 1e9 / n, "GFLOP");
  report->Add("kernels.gemm_gflops_per_s",
              call_seconds > 0 ? flops / 1e9 / call_seconds : 0.0, "GFLOP/s");
  report->Add("kernels.fused_attn_rows_per_call",
              static_cast<double>(ka.fused_attn_rows - kb.fused_attn_rows) / n,
              "count");
  report->Add("kernels.fused_attn_kv_blocks_per_call",
              static_cast<double>(ka.fused_attn_kv_blocks -
                                  kb.fused_attn_kv_blocks) /
                  n,
              "count");
  report->Add("kernels.pack_cache_hit_rate",
              lookups > 0 ? hits / lookups : 0.0, "ratio");
  report->Add("kernels.pack_cache_lookups", lookups, "count");

  const auto& ab = before.alloc;
  const auto& aa = after.alloc;
  double requests = static_cast<double>(aa.requests - ab.requests);
  double pool_hits = static_cast<double>(aa.pool_hits - ab.pool_hits);
  report->Add("tensor.alloc_requests_per_call", requests / n, "count");
  report->Add("tensor.heap_allocs_per_call",
              static_cast<double>(aa.heap_allocs - ab.heap_allocs) / n,
              "count");
  report->Add("tensor.pool_hit_rate",
              requests > 0 ? pool_hits / requests : 0.0, "ratio");
  report->Add("tensor.pool_requests", requests, "count");
}

void PrintSetupTimes(const std::vector<double>& setup_s) {
  std::printf("setup repetitions:");
  for (double s : setup_s) std::printf(" %.3f s", s);
  std::printf("\n");
}

double PeakLiveMb() {
  return static_cast<double>(tensor::GetAllocStats().peak_live_bytes) / 1e6;
}

bench::Scale PaperShapeScale(bench::Preset preset, int64_t nodes,
                             int64_t steps, int64_t window_len) {
  bench::Scale scale;
  switch (preset) {
    case bench::Preset::kAqi36:
      scale.aqi_nodes = nodes;
      scale.aqi_steps = steps;
      break;
    case bench::Preset::kMetrLa:
      scale.metr_nodes = nodes;
      scale.metr_steps = steps;
      break;
    case bench::Preset::kPemsBay:
      scale.pems_nodes = nodes;
      scale.pems_steps = steps;
      break;
  }
  scale.window_len = window_len;
  scale.train_stride = window_len;
  return scale;
}

std::unique_ptr<core::PristiModel> MakeBenchModel(
    const data::ImputationTask& task, uint64_t seed) {
  core::PristiConfig config =
      bench::PristiConfigFor(task, bench::Scale{});
  Rng rng(seed);
  return std::make_unique<core::PristiModel>(
      config, task.dataset.graph.adjacency, rng);
}

diffusion::NoiseSchedule BenchSchedule() {
  eval::DiffusionRunOptions defaults;
  return diffusion::NoiseSchedule::Quadratic(50, defaults.beta_1,
                                             defaults.beta_end);
}

std::string CheckImputation(const data::Sample& window,
                            const diffusion::ImputationResult& result) {
  const int64_t numel = window.values.numel();
  const float* values = window.values.data();
  const float* observed = window.observed.data();
  for (size_t s = 0; s < result.samples.size(); ++s) {
    const tensor::Tensor& sample = result.samples[s];
    if (sample.numel() != numel) return "sample shape mismatch";
    const float* out = sample.data();
    for (int64_t i = 0; i < numel; ++i) {
      if (!std::isfinite(out[i])) {
        return "non-finite value in sample " + std::to_string(s) +
               " at " + std::to_string(i);
      }
      if (observed[i] > 0.5f &&
          std::memcmp(&out[i], &values[i], sizeof(float)) != 0) {
        return "observed entry " + std::to_string(i) + " of sample " +
               std::to_string(s) + " differs from the observation";
      }
    }
  }
  if (result.samples.empty()) return "no samples";
  return "";
}

bool SameBits(const diffusion::ImputationResult& a,
              const diffusion::ImputationResult& b) {
  if (a.samples.size() != b.samples.size()) return false;
  for (size_t s = 0; s < a.samples.size(); ++s) {
    const tensor::Tensor& x = a.samples[s];
    const tensor::Tensor& y = b.samples[s];
    if (x.numel() != y.numel() ||
        std::memcmp(x.data(), y.data(),
                    static_cast<size_t>(x.numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace pristi::perfbench
