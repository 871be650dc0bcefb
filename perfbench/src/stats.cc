#include "stats.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"

namespace pristi::perfbench {

std::optional<double> Percentile(std::vector<double> values, double q,
                                 int64_t min_beyond) {
  PRISTI_CHECK(q >= 0.0 && q <= 1.0);
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  // Equal neighbours need no interpolation; skipping it also keeps infinite
  // values (failed requests' latencies) from turning into NaN.
  double value = (frac == 0.0 || values[hi] == values[lo])
                     ? values[lo]
                     : values[lo] + (values[hi] - values[lo]) * frac;
  int64_t beyond = 0;
  for (double v : values) {
    if (q >= 0.5 ? v > value : v < value) ++beyond;
  }
  if (beyond < min_beyond) return std::nullopt;
  return value;
}

double Median(std::vector<double> values) {
  PRISTI_CHECK(!values.empty());
  return *Percentile(std::move(values), 0.5, /*min_beyond=*/0);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

std::vector<double> PoissonSchedule(uint64_t seed, int64_t count,
                                    double duration_s) {
  PRISTI_CHECK_GE(count, 0);
  PRISTI_CHECK(duration_s > 0.0);
  Rng rng(seed);
  std::vector<double> due(static_cast<size_t>(count));
  for (double& d : due) d = rng.Uniform(0.0, duration_s);
  std::sort(due.begin(), due.end());
  return due;
}

void RunOpenLoop(const std::vector<double>& due_s, int64_t start_nanos,
                 Clock* clock, const std::function<void(size_t)>& submit,
                 std::vector<int64_t>* sent_nanos) {
  std::mutex mu;
  std::condition_variable cv;
  if (sent_nanos != nullptr) sent_nanos->assign(due_s.size(), 0);
  for (size_t i = 0; i < due_s.size(); ++i) {
    int64_t due = start_nanos + static_cast<int64_t>(due_s[i] * 1e9);
    {
      std::unique_lock<std::mutex> lock(mu);
      while (!clock->WaitUntil(cv, lock, due)) {
      }
    }
    if (sent_nanos != nullptr) (*sent_nanos)[i] = clock->NowNanos();
    submit(i);
  }
}

double LatencyFromDueMs(int64_t start_nanos, double due_s,
                        int64_t done_nanos) {
  double due_nanos = static_cast<double>(start_nanos) + due_s * 1e9;
  return (static_cast<double>(done_nanos) - due_nanos) / 1e6;
}

}  // namespace pristi::perfbench
