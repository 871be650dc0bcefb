#include "timing_predictor.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/check.h"

namespace pristi::perfbench {
namespace {

std::atomic<uint64_t> next_decorator_id{1};

// The calling thread's buffer for the decorator it last used. A thread that
// alternates between decorators re-registers (harmless: the registry keeps
// one buffer per registration and TakeSpans merges them all).
struct LocalCache {
  uint64_t owner = 0;
  void* buffer = nullptr;
};
thread_local LocalCache local_cache;

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TimingPredictor::TimingPredictor(diffusion::ConditionalNoisePredictor* inner)
    : inner_(inner), id_(next_decorator_id.fetch_add(1)) {
  PRISTI_CHECK(inner != nullptr);
}

TimingPredictor::ThreadBuffer* TimingPredictor::LocalBuffer() {
  if (local_cache.owner == id_) {
    return static_cast<ThreadBuffer*>(local_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->thread = static_cast<int64_t>(buffers_.size()) - 1;
  buffer->spans.reserve(4096);
  local_cache.owner = id_;
  local_cache.buffer = buffer;
  return buffer;
}

autograd::Variable TimingPredictor::PredictNoise(
    const tensor::Tensor& noisy, const diffusion::DiffusionBatch& batch,
    int64_t t) {
  ThreadBuffer* buffer = LocalBuffer();
  Span span;
  span.kind = Span::Kind::kPredictNoise;
  span.thread = buffer->thread;
  span.batch = noisy.dim(0);
  span.step = t;
  span.start_nanos = NowNanos();
  autograd::Variable out = inner_->PredictNoise(noisy, batch, t);
  span.end_nanos = NowNanos();
  buffer->spans.push_back(span);
  return out;
}

void TimingPredictor::ZeroGrad() {
  ThreadBuffer* buffer = LocalBuffer();
  Span span;
  span.kind = Span::Kind::kZeroGrad;
  span.thread = buffer->thread;
  span.start_nanos = NowNanos();
  inner_->ZeroGrad();
  span.end_nanos = NowNanos();
  buffer->spans.push_back(span);
}

std::vector<Span> TimingPredictor::TakeSpans() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_nanos < b.start_nanos;
  });
  return all;
}

}  // namespace pristi::perfbench
