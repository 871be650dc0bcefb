// Self-tests of the benchmark's own statistics helpers (stats.h). They run
// before every measurement and under `pristi_perfbench --self-test`.

#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "workloads.h"

namespace pristi::perfbench {
namespace {

int failures = 0;
constexpr double kInf = std::numeric_limits<double>::infinity();

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

void TestPercentileGuard() {
  // p50 of 1..19 has 9 samples above it; of 1..20, 10.
  Expect(!Percentile(Ramp(19), 0.5).has_value(),
         "p50 of 19 samples must not be reported");
  std::optional<double> p50 = Percentile(Ramp(20), 0.5);
  Expect(p50.has_value() && *p50 == 10.5, "p50 of 1..20 is 10.5");
  // p90 of 1..50 has 5 samples above it; of 1..100, 10.
  Expect(!Percentile(Ramp(50), 0.9).has_value(),
         "p90 of 50 samples must not be reported");
  std::optional<double> p90 = Percentile(Ramp(100), 0.9);
  Expect(p90.has_value() && *p90 > 90.0 && *p90 < 91.0,
         "p90 of 1..100 lies between 90 and 91");
  // Ties at the percentile do not count as beyond it.
  std::vector<double> flat(40, 3.0);
  Expect(!Percentile(flat, 0.5).has_value(),
         "no sample lies beyond the median of a constant sample");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "unguarded median of 3 samples");
  // Failed requests enter as infinite latency and push percentiles up
  // without poisoning them.
  std::vector<double> with_failures = Ramp(20);
  with_failures.insert(with_failures.end(), 5, kInf);
  std::optional<double> p50_failed = Percentile(with_failures, 0.5);
  Expect(p50_failed.has_value() && *p50_failed == 13.0,
         "p50 of 1..20 plus 5 failures is 13");
  Expect(Median({kInf, kInf, 1.0}) == kInf,
         "a median among failures is infinite, not NaN");
}

void TestScheduleIsSeeded() {
  std::vector<double> a = PoissonSchedule(42, 200, 10.0);
  std::vector<double> b = PoissonSchedule(42, 200, 10.0);
  std::vector<double> c = PoissonSchedule(43, 200, 10.0);
  Expect(a == b, "the same seed gives an identical schedule");
  Expect(a != c, "another seed gives another schedule");
  bool sorted_in_range = a.size() == 200;
  for (size_t i = 0; i < a.size(); ++i) {
    sorted_in_range = sorted_in_range && a[i] >= 0.0 && a[i] < 10.0 &&
                      (i == 0 || a[i - 1] <= a[i]);
  }
  Expect(sorted_in_range, "schedule is sorted inside [0, duration)");
}

void TestLatencyFromDueTime() {
  // 20 requests due 2 ms apart against a server that completes each request
  // the moment it is submitted, except that request 4 stalls the (single)
  // submitting thread for 60 ms. Timed from the due time, the requests that
  // were due during the stall carry it in their latency; timed from the
  // send time they would all look instant.
  constexpr int kRequests = 20;
  constexpr int kStalled = 4;
  std::vector<double> due;
  for (int i = 0; i < kRequests; ++i) due.push_back(0.002 * i);
  Clock* clock = RealClock();
  std::vector<int64_t> done(kRequests, 0);
  std::vector<int64_t> sent;
  int64_t start = clock->NowNanos();
  RunOpenLoop(
      due, start, clock,
      [&](size_t i) {
        if (static_cast<int>(i) == kStalled) {
          std::this_thread::sleep_for(std::chrono::milliseconds(60));
        }
        done[i] = clock->NowNanos();
      },
      &sent);
  double next_latency = LatencyFromDueMs(start, due[kStalled + 1],
                                         done[kStalled + 1]);
  double next_send_latency =
      static_cast<double>(done[kStalled + 1] - sent[kStalled + 1]) / 1e6;
  Expect(next_latency >= 50.0,
         "a stall inflates the next request's latency from its due time");
  Expect(next_send_latency < next_latency - 40.0,
         "latency from the send time would hide the stall");
  bool all_late = true;
  for (int i = kStalled + 1; i < kRequests; ++i) {
    // Due at most 2*(kRequests-1) = 38 ms after start; the stall ends at
    // >= 8 + 60 ms.
    all_late = all_late && LatencyFromDueMs(start, due[i], done[i]) >= 25.0;
  }
  Expect(all_late, "every request due during the stall is late");
  Expect(sent.size() == due.size() && sent[0] >= start,
         "the generator records a send time per request");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestPercentileGuard();
  TestScheduleIsSeeded();
  TestLatencyFromDueTime();
  return failures;
}

}  // namespace pristi::perfbench
