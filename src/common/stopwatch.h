#ifndef PRISTI_COMMON_STOPWATCH_H_
#define PRISTI_COMMON_STOPWATCH_H_

#include <chrono>

namespace pristi {

// Wall-clock stopwatch for coarse experiment timing (Fig. 9 time costs).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pristi

#endif  // PRISTI_COMMON_STOPWATCH_H_
