#ifndef PRISTI_PERFBENCH_TIMING_PREDICTOR_H_
#define PRISTI_PERFBENCH_TIMING_PREDICTOR_H_

// A timing decorator around a ConditionalNoisePredictor: every PredictNoise
// and ZeroGrad call is forwarded unchanged and recorded as a span (kind,
// thread, leading batch dim, diffusion step, start/end on the steady clock).
//
// Spans land in per-thread buffers. A thread registers its buffer under a
// mutex on its first call into a given decorator; every later call appends
// to the buffer through a thread_local pointer without taking a lock, so the
// decorator is safe under the trainer's concurrent shards and adds no
// contention between them. TakeSpans() flushes all buffers into one list;
// call it only while no call is in flight (after the phase being measured).

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "diffusion/ddpm.h"

namespace pristi::perfbench {

struct Span {
  enum class Kind { kPredictNoise, kZeroGrad };
  Kind kind = Kind::kPredictNoise;
  int64_t thread = 0;      // dense per-decorator thread index
  int64_t batch = 0;       // leading batch dim of `noisy` (0 for ZeroGrad)
  int64_t step = 0;        // diffusion step t (0 for ZeroGrad)
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  double Millis() const {
    return static_cast<double>(end_nanos - start_nanos) / 1e6;
  }
};

// Steady-clock nanoseconds, the time base of every span.
int64_t NowNanos();

class TimingPredictor : public diffusion::ConditionalNoisePredictor {
 public:
  explicit TimingPredictor(diffusion::ConditionalNoisePredictor* inner);

  autograd::Variable PredictNoise(const tensor::Tensor& noisy,
                                  const diffusion::DiffusionBatch& batch,
                                  int64_t t) override;
  std::vector<autograd::Variable> Parameters() override {
    return inner_->Parameters();
  }
  void ZeroGrad() override;

  // All spans recorded since the last call, sorted by start time.
  std::vector<Span> TakeSpans();

 private:
  struct ThreadBuffer {
    int64_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* LocalBuffer();

  diffusion::ConditionalNoisePredictor* const inner_;
  const uint64_t id_;  // process-unique, keys the thread_local cache
  std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace pristi::perfbench

#endif  // PRISTI_PERFBENCH_TIMING_PREDICTOR_H_
