#ifndef PRISTI_PERFBENCH_STATS_H_
#define PRISTI_PERFBENCH_STATS_H_

// Statistics helpers of the repository benchmark: guarded percentiles,
// seeded open-loop arrival schedules, and the open-loop generator whose
// latency is measured from each request's due time.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/clock.h"

namespace pristi::perfbench {

// Minimum number of samples that must lie strictly beyond a percentile (above
// it for q >= 0.5, below it otherwise) before the percentile is reported. A
// tail percentile estimated from fewer samples is mostly noise.
inline constexpr int64_t kMinSamplesBeyond = 10;

// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
// order statistics, or nullopt when fewer than `min_beyond` samples lie
// strictly beyond it.
std::optional<double> Percentile(std::vector<double> values, double q,
                                 int64_t min_beyond = kMinSamplesBeyond);

// Plain median of a non-empty sample (no guard): used for repeated set-up
// timings and per-call spans where every value is a measurement of the same
// fixed work.
double Median(std::vector<double> values);

double Sum(const std::vector<double>& values);

// A Poisson arrival process conditioned on its count: `count` arrival times
// in [0, duration_s), drawn as sorted uniforms from a generator seeded with
// `seed`. Conditioning on the count keeps the offered load of every run
// identical (count / duration) while the gaps stay exponential-like; the
// same seed always yields the same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, int64_t count,
                                    double duration_s);

// Drives an open loop: for i in order, waits on `clock` until
// start_nanos + due_s[i] and then calls submit(i). The loop never waits for
// responses, so a slow system sees requests pile up instead of slowing the
// generator (no coordinated omission). `sent_nanos`, when non-null, receives
// the clock time at which each submit was issued; sent - due is the
// generator's own lateness.
void RunOpenLoop(const std::vector<double>& due_s, int64_t start_nanos,
                 Clock* clock, const std::function<void(size_t)>& submit,
                 std::vector<int64_t>* sent_nanos);

// Latency of an open-loop request in milliseconds: from its due time (not
// its send time) to its completion.
double LatencyFromDueMs(int64_t start_nanos, double due_s,
                        int64_t done_nanos);

}  // namespace pristi::perfbench

#endif  // PRISTI_PERFBENCH_STATS_H_
