#ifndef PRISTI_SERVE_SESSION_H_
#define PRISTI_SERVE_SESSION_H_

// The serving layer: a long-running session that accepts concurrent
// imputation requests (sliding (N, L) windows over sensor streams), admits
// them through a bounded queue, coalesces waiting requests into one
// (R*S, N, L) reverse-diffusion call (diffusion::ImputeWindowsCoalesced),
// and answers each with its per-request quantiles/median.
//
// Contracts the test layer (tests/serve_test.cc) enforces:
//
//   * Determinism — a request's response depends only on (window, seed,
//     model weights, ImputeOptions): it is bit-identical to running the
//     request solo through diffusion::ImputeWindow with Rng(seed), no
//     matter which other requests shared its batch, in which order they
//     arrived, or how many pool threads ran the kernels. Batching is a
//     latency policy, never a numerics policy.
//   * Admission — Submit never blocks. A full queue resolves the future
//     immediately with the retryable kQueueFull status; a mis-shaped
//     window, or a NaN/Inf at an observed position, with
//     kInvalidRequest; a closed session with kCancelled.
//   * Batching policy — a batch flushes when max_batch requests are
//     waiting or when the OLDEST queued request has waited max_wait_nanos,
//     whichever comes first (see common/bounded_queue.h). Time is read
//     from an injected Clock so the policy is testable without sleeps.
//   * Hot reload — ReloadCheckpoint stages new weights into a fresh model
//     instance off the serving path and swaps it in between batches. A
//     damaged checkpoint returns the typed serialize error and the old
//     model keeps serving untouched.
//   * Shutdown — kDrain answers everything already admitted, kCancel
//     resolves queued (not yet running) requests with kCancelled; both
//     wait for the in-flight batch to finish before returning.
//
// One session serializes all model access on its single batch worker, so a
// session is the supported way to share one model between threads (see
// diffusion::ModelAccessGuard).

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/clock.h"
#include "common/status.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "nn/module.h"

namespace pristi::serve {

// A noise predictor plus its nn::Module view (the same object, seen twice:
// PristiModel and CsdiModel both inherit from each). `module` may be null
// for predictors that are not Modules — the session then serves but cannot
// hot-reload.
struct ModelSlot {
  std::shared_ptr<diffusion::ConditionalNoisePredictor> predictor;
  nn::Module* module = nullptr;
};

// Builds a fresh, uninitialized-weights ModelSlot for checkpoint staging.
// Called off the serving path by ReloadCheckpoint; must be thread-safe
// with respect to the session's own model calls (constructing a new
// PristiModel is).
using ModelFactory = std::function<ModelSlot()>;

struct ServeConfig {
  int64_t num_nodes = 0;    // N — every request window must match (required)
  int64_t window_len = 0;   // L (required)
  // Batching policy: flush on size or oldest-waiter deadline.
  int64_t max_batch = 8;
  int64_t max_wait_nanos = 5'000'000;  // 5 ms
  int64_t queue_capacity = 64;
  // Sampling settings every request starts from. A request may override
  // the sampler and step count (see ImputeRequest); requests with the same
  // effective (sampler, steps, samples) coalesce into one model call, and
  // mixed batches are partitioned by diffusion::ImputeWindowsCoalesced
  // without giving up per-request bit-identity.
  diffusion::ImputeOptions impute;
  // false: no worker thread is started and the owner drives batches
  // explicitly with PumpOnce() — single-threaded, fully deterministic mode
  // for tests and embedders with their own executor.
  bool start_worker = true;
};

// The one place the ServeConfig rules live: num_nodes, window_len,
// max_batch, queue_capacity and impute.num_samples must be >= 1 and
// max_wait_nanos >= 0. Returns kInvalidRequest naming the first violated
// field, so front ends can reject bad flags without aborting;
// ServeSession's constructor CHECKs it.
Status ValidateServeConfig(const ServeConfig& config);

struct ImputeRequest {
  data::Sample window;  // values + observed mask, (N, L)
  // The request's determinism key: the response equals
  // ImputeWindow(model, schedule, window, effective options, Rng(seed))
  // bitwise, where the effective options are the session's
  // ServeConfig::impute with the overrides below applied. Callers wanting
  // diverse draws submit distinct seeds.
  uint64_t seed = 0;
  // Per-request sampler overrides; unset fields keep the session default.
  // A negative step count is rejected at admission with kInvalidRequest
  // (0 means full schedule). Requests with different effective settings
  // may share a batch — the session partitions them into coalescible
  // groups without changing any request's bits.
  std::optional<diffusion::SamplerKind> sampler;
  std::optional<int64_t> num_inference_steps;
};

struct ImputeResponse {
  Status status;  // result fields below are meaningful only when ok()
  diffusion::ImputationResult result;
  int64_t batch_size = 0;   // requests coalesced into this model call
  int64_t queue_nanos = 0;  // admission -> batch start
  int64_t total_nanos = 0;  // admission -> response ready
};

class ServeSession {
 public:
  // `initial` is the model to serve; `factory` builds staging instances
  // for hot reload (pass nullptr to disable reload). `clock` must outlive
  // the session; nullptr selects the process steady clock.
  ServeSession(ModelSlot initial, ModelFactory factory,
               diffusion::NoiseSchedule schedule, const ServeConfig& config,
               Clock* clock = nullptr);
  ~ServeSession();  // Shutdown(DrainMode::kDrain)

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // Non-blocking admission; the future resolves when the request's batch
  // completes (or immediately, with a typed non-ok status, when it is
  // rejected). Safe to call from any number of client threads.
  std::future<ImputeResponse> Submit(ImputeRequest request);

  // Loads `path` into a fresh staging model and, on success, schedules an
  // atomic swap before the next batch. On ANY failure (damaged file,
  // wrong kind, shape skew) returns the typed error and the live model
  // keeps serving, untouched — reload is never allowed to take down a
  // serving session. Thread-safe; the swap applies the newest staged
  // model.
  Status ReloadCheckpoint(const std::string& path);

  enum class DrainMode {
    kDrain,   // answer everything already admitted, then stop
    kCancel,  // resolve queued requests with kCancelled, finish in-flight
  };
  // Stops admission and brings the worker to rest. Idempotent; the first
  // call's mode wins. Submit after shutdown resolves with kCancelled.
  void Shutdown(DrainMode mode);

  // Manual-pump mode (start_worker = false): processes exactly one batch
  // on the calling thread — applying any staged reload first — and
  // resolves its futures. Blocks per the batching policy if the queue is
  // non-empty but under max_batch (set max_wait_nanos = 0 for tests that
  // must never wait). Returns false once the queue is closed and drained.
  bool PumpOnce();

  struct Stats {
    int64_t admitted = 0;
    int64_t rejected_full = 0;     // typed-retryable queue-full rejections
    int64_t rejected_invalid = 0;  // bad shape, non-finite observed, steps < 0
    int64_t cancelled = 0;         // resolved with kCancelled
    int64_t completed = 0;
    int64_t batches = 0;           // model calls issued
    int64_t max_batch_observed = 0;
    int64_t reloads_applied = 0;
    int64_t reloads_rejected = 0;
  };
  Stats stats() const;

  const ServeConfig& config() const { return config_; }

 private:
  struct Pending {
    ImputeRequest request;
    std::promise<ImputeResponse> promise;
    int64_t admitted_nanos = 0;
  };

  void WorkerLoop();
  void ApplyStagedReload();                   // worker/pump thread only
  void RunBatch(std::vector<Pending> batch);  // worker/pump thread only

  const ServeConfig config_;
  const diffusion::NoiseSchedule schedule_;
  Clock* const clock_;
  ModelFactory factory_;

  // The live model. Only the batch worker (or PumpOnce caller) touches
  // predictor state; `staged_` hands freshly-loaded weights across.
  ModelSlot active_;

  mutable std::mutex mu_;          // guards staged_ and stats_
  ModelSlot staged_;               // non-null predictor => swap pending
  Stats stats_;
  std::once_flag shutdown_once_;

  BoundedQueue<Pending> queue_;
  std::thread worker_;
};

}  // namespace pristi::serve

#endif  // PRISTI_SERVE_SESSION_H_
