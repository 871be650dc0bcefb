#ifndef PRISTI_PERFBENCH_WORKLOAD_COMMON_H_
#define PRISTI_PERFBENCH_WORKLOAD_COMMON_H_

// Scaffolding shared by the three benchmark workloads: run options, the
// result report (metrics + correctness tally, printed as the final JSON
// line), counter snapshots, and the quick-scale model/task builders.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "pristi/pristi_model.h"
#include "stats.h"
#include "tensor/kernels/kernels.h"
#include "tensor/storage.h"
#include "timing_predictor.h"

namespace pristi::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Metrics plus the correctness tally of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Counts one attempted operation.
  void Attempt() { ++attempted_; }
  // Counts one failed operation and logs why to stderr.
  void Fail(const std::string& why);

  bool Has(const std::string& name) const;
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  // Prints every metric as a human-readable line, then the final one-line
  // JSON object {"correct", "attempted", "failed", "metrics"}.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Adds every per-layer metric the workload did not report, as 0: that layer
// does not run in this workload (e.g. the serve queue under impute-pems325).
// Keeps the traced result's key set identical across workloads.
void AddNotApplicableLayers(Report* report);

// Process-wide allocator and kernel counters at one instant.
struct Counters {
  tensor::AllocStats alloc;
  tensor::kernels::KernelStats kernel;
  static Counters Now();
};

// Adds the per-model-call tensor/kernel metrics for the counter movement
// between `before` and `after`, attributed to `calls` model calls that
// together spent `call_seconds` inside PredictNoise.
void AddPerCallCounters(const Counters& before, const Counters& after,
                        int64_t calls, double call_seconds, Report* report);

// Peak live tensor bytes of the process so far, in MB (1e6 bytes).
double PeakLiveMb();

// bench_common's quick-scale knobs with one preset resized to paper shape:
// `nodes` sensors, `steps` time steps, non-overlapping windows of
// `window_len`. Pass it to bench::MakeTask for that preset.
bench::Scale PaperShapeScale(bench::Preset preset, int64_t nodes,
                             int64_t steps, int64_t window_len);

// Quick-scale PriSTI (bench_common's default Scale: d=16, 4 heads, 2 layers,
// <= 8 virtual nodes, dense MPNN) with seeded random weights; speed does not
// depend on training.
std::unique_ptr<core::PristiModel> MakeBenchModel(
    const data::ImputationTask& task, uint64_t seed);

// The T = 50 quadratic schedule with the harness's default betas.
diffusion::NoiseSchedule BenchSchedule();

// Correctness gate of one imputation: every sample is finite and equals the
// observed value bitwise wherever the window is observed (Algorithm 2's
// conditional entries pass through). Returns an empty string when it holds,
// else a description of the first violation.
std::string CheckImputation(const data::Sample& window,
                            const diffusion::ImputationResult& result);

// True when both results hold bitwise identical samples.
bool SameBits(const diffusion::ImputationResult& a,
              const diffusion::ImputationResult& b);

// Prints the wall time of each set-up repetition.
void PrintSetupTimes(const std::vector<double>& setup_s);

// Times `fn` `repeats` times and returns the median wall time in ms.
template <typename Fn>
double MedianMillis(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    int64_t start = NowNanos();
    fn();
    ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
  }
  return Median(std::move(ms));
}

}  // namespace pristi::perfbench

#endif  // PRISTI_PERFBENCH_WORKLOAD_COMMON_H_
