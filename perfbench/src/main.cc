// pristi_perfbench — the repository benchmark binary.
//
//   pristi_perfbench --workload <impute-pems325|train-metr207|serve-aqi36>
//                    --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]
//
// Prints an environment fingerprint, human-readable metric lines, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones plus trace_overhead_frac. Exits 1 when a
// correctness gate or a self-test fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// The environment fingerprint: what a number was measured on.
void PrintFingerprint(const pristi::perfbench::RunOptions& options,
                      const std::string& git_sha) {
#if defined(__AVX2__)
  const char* avx2_compiled = "yes";
#else
  const char* avx2_compiled = "no";
#endif
  std::printf("fingerprint git_sha=%s build_type=%s compiler=\"%s\" "
              "avx2_cpu=%s avx2_compiled=%s nproc=%u pool_threads=%lld\n",
              git_sha.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
              __builtin_cpu_supports("avx2") ? "yes" : "no", avx2_compiled,
              std::thread::hardware_concurrency(),
              static_cast<long long>(pristi::ParallelThreadCount()));
  std::printf("run workload=%s seed=%llu seconds=%.3f trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "pristi_perfbench: %s\n"
               "usage: pristi_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pristi::perfbench;
  RunOptions options;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  void (*run)(const RunOptions&, Report*) = nullptr;
  if (options.workload == "impute-pems325") {
    run = RunImputeWorkload;
  } else if (options.workload == "train-metr207") {
    run = RunTrainWorkload;
  } else if (options.workload == "serve-aqi36") {
    run = RunServeWorkload;
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  PrintFingerprint(options, git_sha);
  Report report;
  // The statistics helpers gate every run: a broken percentile or schedule
  // would silently corrupt the numbers below.
  report.Attempt();
  if (RunSelfTests() != 0) report.Fail("statistics self-tests");
  run(options, &report);
  if (options.trace) {
    AddNotApplicableLayers(&report);
    report.Add("common.pool_threads",
               static_cast<double>(pristi::ParallelThreadCount()), "count");
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
