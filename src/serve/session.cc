#include "serve/session.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "serialize/checkpoint.h"
#include "tensor/tensor.h"

namespace pristi::serve {

ServeConfig ServeConfig::FromEnv() {
  ServeConfig config;
  config.max_batch = GetEnvIntOr("PRISTI_SERVE_MAX_BATCH", config.max_batch);
  config.max_wait_nanos =
      GetEnvIntOr("PRISTI_SERVE_MAX_WAIT_MS", 5) * 1'000'000;
  config.queue_capacity =
      GetEnvIntOr("PRISTI_SERVE_QUEUE_CAP", config.queue_capacity);
  std::string sampler = GetEnvOr("PRISTI_SERVE_SAMPLER", "");
  if (!sampler.empty()) {
    PRISTI_CHECK(
        diffusion::ParseSamplerKind(sampler, &config.impute.sampler))
        << "PRISTI_SERVE_SAMPLER: unknown sampler '" << sampler
        << "' (ddpm|ddim|plms)";
  }
  config.impute.num_inference_steps = GetEnvIntOr(
      "PRISTI_SERVE_STEPS", config.impute.num_inference_steps);
  return config;
}

Status ParseSamplerName(const std::string& name,
                        diffusion::SamplerKind* out) {
  if (!diffusion::ParseSamplerKind(name, out)) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "unknown sampler '" + name + "' (ddpm|ddim|plms)");
  }
  return Status::Ok();
}

ServeSession::ServeSession(ModelSlot initial, ModelFactory factory,
                           diffusion::NoiseSchedule schedule,
                           const ServeConfig& config, Clock* clock)
    : config_(config),
      schedule_(std::move(schedule)),
      clock_(clock != nullptr ? clock : RealClock()),
      factory_(std::move(factory)),
      active_(std::move(initial)),
      queue_(config.queue_capacity, clock_) {
  PRISTI_CHECK(active_.predictor != nullptr);
  PRISTI_CHECK_GE(config_.num_nodes, 1);
  PRISTI_CHECK_GE(config_.window_len, 1);
  PRISTI_CHECK_GE(config_.max_batch, 1);
  PRISTI_CHECK_GE(config_.max_wait_nanos, 0);
  PRISTI_CHECK_GT(config_.impute.num_samples, 0);
  if (config_.start_worker) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

ServeSession::~ServeSession() { Shutdown(DrainMode::kDrain); }

std::future<ImputeResponse> ServeSession::Submit(ImputeRequest request) {
  std::promise<ImputeResponse> promise;
  std::future<ImputeResponse> future = promise.get_future();
  auto reject_invalid = [&](std::string message) {
    ImputeResponse response;
    response.status =
        Status::Error(ErrorCode::kInvalidRequest, std::move(message));
    std::lock_guard<std::mutex> guard(mu_);
    ++stats_.rejected_invalid;
    promise.set_value(std::move(response));
    return std::move(future);
  };
  const tensor::Tensor& values = request.window.values;
  const tensor::Tensor& observed = request.window.observed;
  bool shape_ok = values.ndim() == 2 && values.dim(0) == config_.num_nodes &&
                  values.dim(1) == config_.window_len &&
                  tensor::ShapesEqual(values.shape(), observed.shape());
  if (!shape_ok) {
    return reject_invalid("request window must be (" +
                          std::to_string(config_.num_nodes) + ", " +
                          std::to_string(config_.window_len) +
                          ") with a matching observed mask");
  }
  // An observed value conditions every chain and is copied into the
  // output, so a NaN or Inf there would poison the whole window.
  for (int64_t i = 0; i < values.numel(); ++i) {
    if (observed[i] != 0.0f && !std::isfinite(values[i])) {
      return reject_invalid("observed value at flat index " +
                            std::to_string(i) + " is not finite");
    }
  }
  if (request.num_inference_steps.has_value() &&
      *request.num_inference_steps < 0) {
    return reject_invalid(
        "num_inference_steps must be >= 0 (0 = full schedule), got " +
        std::to_string(*request.num_inference_steps));
  }

  Pending pending;
  pending.request = std::move(request);
  pending.admitted_nanos = clock_->NowNanos();
  pending.promise = std::move(promise);
  Status admitted = queue_.TryPush(&pending);
  if (!admitted.ok()) {
    // TryPush consumes `pending` only on success, so the promise is still
    // ours to resolve with the typed rejection.
    ImputeResponse response;
    response.status = admitted;
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (admitted.code() == ErrorCode::kQueueFull) {
        ++stats_.rejected_full;
      } else {
        ++stats_.cancelled;
      }
    }
    pending.promise.set_value(std::move(response));
    return future;
  }
  std::lock_guard<std::mutex> guard(mu_);
  ++stats_.admitted;
  return future;
}

Status ServeSession::ReloadCheckpoint(const std::string& path) {
  if (!factory_) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "session has no model factory; hot reload disabled");
  }
  ModelSlot staging = factory_();
  PRISTI_CHECK(staging.predictor != nullptr);
  if (staging.module == nullptr) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "staging model is not an nn::Module");
  }
  Status status = serialize::LoadModuleCheckpointFile(*staging.module, path);
  if (!status.ok()) {
    std::lock_guard<std::mutex> guard(mu_);
    ++stats_.reloads_rejected;
    return status;  // live model untouched, keeps serving
  }
  std::lock_guard<std::mutex> guard(mu_);
  staged_ = std::move(staging);  // newest staged model wins
  return Status::Ok();
}

void ServeSession::ApplyStagedReload() {
  ModelSlot staged;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (staged_.predictor == nullptr) return;
    staged = std::move(staged_);
    staged_ = ModelSlot{};
    ++stats_.reloads_applied;
  }
  // The worker is the only model user, and it is between batches here, so
  // the swap is atomic from every client's point of view: a batch runs
  // entirely on old weights or entirely on new ones.
  active_ = std::move(staged);
}

void ServeSession::RunBatch(std::vector<Pending> batch) {
  int64_t start_nanos = clock_->NowNanos();
  std::vector<data::Sample> windows;
  std::vector<uint64_t> seeds;
  std::vector<diffusion::ImputeOptions> options;
  windows.reserve(batch.size());
  seeds.reserve(batch.size());
  options.reserve(batch.size());
  for (Pending& pending : batch) {
    windows.push_back(pending.request.window);
    seeds.push_back(pending.request.seed);
    // Effective options: the session default with this request's sampler
    // overrides applied. The coalescing layer groups like-configured
    // requests; each response stays bit-identical to its solo run.
    diffusion::ImputeOptions effective = config_.impute;
    if (pending.request.sampler.has_value()) {
      effective.sampler = *pending.request.sampler;
    }
    if (pending.request.num_inference_steps.has_value()) {
      effective.num_inference_steps = *pending.request.num_inference_steps;
    }
    options.push_back(effective);
  }
  std::vector<diffusion::ImputationResult> results =
      diffusion::ImputeWindowsCoalesced(active_.predictor.get(), schedule_,
                                        windows, seeds, options);
  int64_t end_nanos = clock_->NowNanos();
  for (size_t i = 0; i < batch.size(); ++i) {
    ImputeResponse response;
    response.status = Status::Ok();
    response.result = std::move(results[i]);
    response.batch_size = static_cast<int64_t>(batch.size());
    response.queue_nanos = start_nanos - batch[i].admitted_nanos;
    response.total_nanos = end_nanos - batch[i].admitted_nanos;
    batch[i].promise.set_value(std::move(response));
  }
  std::lock_guard<std::mutex> guard(mu_);
  ++stats_.batches;
  stats_.completed += static_cast<int64_t>(batch.size());
  stats_.max_batch_observed = std::max(
      stats_.max_batch_observed, static_cast<int64_t>(batch.size()));
}

bool ServeSession::PumpOnce() {
  std::vector<Pending> batch =
      queue_.PopBatch(config_.max_batch, config_.max_wait_nanos);
  if (batch.empty()) return false;
  ApplyStagedReload();
  RunBatch(std::move(batch));
  return true;
}

void ServeSession::WorkerLoop() {
  while (PumpOnce()) {
  }
}

void ServeSession::Shutdown(DrainMode mode) {
  // call_once makes shutdown idempotent and safe for concurrent callers:
  // the first caller's mode wins and later callers block until it is done.
  std::call_once(shutdown_once_, [&] {
    if (mode == DrainMode::kCancel) {
      std::vector<Pending> cancelled = queue_.CancelPending();
      for (Pending& pending : cancelled) {
        ImputeResponse response;
        response.status = Status::Error(
            ErrorCode::kCancelled, "session shut down before the request ran");
        pending.promise.set_value(std::move(response));
      }
      std::lock_guard<std::mutex> guard(mu_);
      stats_.cancelled += static_cast<int64_t>(cancelled.size());
    } else {
      queue_.Close();
    }
    if (worker_.joinable()) {
      worker_.join();  // drains remaining batches, finishes in-flight work
    } else if (mode == DrainMode::kDrain) {
      // Manual-pump mode: drain inline on the caller.
      while (PumpOnce()) {
      }
    }
  });
}

ServeSession::Stats ServeSession::stats() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stats_;
}

}  // namespace pristi::serve
