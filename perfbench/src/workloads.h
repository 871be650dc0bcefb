#ifndef PRISTI_PERFBENCH_WORKLOADS_H_
#define PRISTI_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each builds its inputs from options.seed,
// measures for options.seconds, checks its outputs, and fills `report` with
// the end-to-end metrics (options.trace == false) or the per-layer metrics
// plus trace_overhead_frac (options.trace == true).

#include "workload_common.h"

namespace pristi::perfbench {

// Offline imputation at PEMS-BAY-like N=325: closed loop, one window after
// another, DDPM with 10 kept steps and S=8 chains.
void RunImputeWorkload(const RunOptions& options, Report* report);

// Sharded training at METR-LA-like N=207: batch 8, 4 shards, repeated
// epochs over a fixed window set.
void RunTrainWorkload(const RunOptions& options, Report* report);

// Open-loop serving at AQI-36-like N=36: seeded Poisson arrivals into a
// ServeSession, each request S=2 with DDIM-10 or PLMS-5.
void RunServeWorkload(const RunOptions& options, Report* report);

// Self-tests of the statistics helpers; returns the number of failed checks.
int RunSelfTests();

// Per-layer metrics every workload measures by direct calls on its own model
// at its own shape: standalone conditional-module and noise-layer forwards
// at (batch, N, L, d), a serial ShardStep backward, a tree all-reduce of 8
// gradient-shaped buffers per parameter, and one Adam step.
void AddDirectLayerMetrics(core::PristiModel* model,
                           const data::ImputationTask& task, int64_t batch,
                           double predict_noise_ms, Report* report);

}  // namespace pristi::perfbench

#endif  // PRISTI_PERFBENCH_WORKLOADS_H_
