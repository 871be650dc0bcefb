// Deterministic concurrency + fault-injection suite for the serving layer.
//
// Three kinds of determinism are enforced without a single real sleep:
//
//   * Numeric — a coalesced response is BIT-identical to running the same
//     request solo through diffusion::ImputeWindow with Rng(seed), no
//     matter which other requests shared the batch, in which order they
//     arrived, or how many pool threads ran the kernels.
//   * Temporal — the batching policy (flush on max-batch or oldest-waiter
//     deadline) is scripted with a FakeClock: tests advance time explicitly
//     and assert exact queue latencies.
//   * Failure — damaged checkpoints (truncated, bit-flipped), full queues
//     and shutdown races all resolve to typed Statuses while the session
//     keeps serving bit-identical answers on the old weights.
//
// The 8-client hammer at the bottom is the TSan regression for the
// session's locking; run_static_analysis.sh runs this binary under ASan,
// UBSan and TSan.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bounded_queue.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "pristi/pristi_model.h"
#include "serialize/checkpoint.h"
#include "serve/session.h"
#include "test_tmpdir.h"

namespace pristi {
namespace {

namespace t = ::pristi::tensor;
using t::Shape;
using t::Tensor;

constexpr int64_t kNodes = 6;
constexpr int64_t kLen = 8;

// Deterministic window with ~30% of entries hidden in a fixed pattern
// (same fixture family as sampler_equivalence_test).
data::Sample MakeWindow(uint64_t seed) {
  Rng rng(seed);
  data::Sample sample;
  sample.values = Tensor::Randn({kNodes, kLen}, rng);
  sample.observed = Tensor::Ones({kNodes, kLen});
  sample.eval = Tensor::Zeros({kNodes, kLen});
  for (int64_t node = 0; node < kNodes; ++node) {
    for (int64_t step = 0; step < kLen; ++step) {
      if ((node * 7 + step * 3) % 10 < 3) {
        sample.observed.at({node, step}) = 0.0f;
      }
    }
  }
  return sample;
}

core::PristiConfig TinyConfig() {
  core::PristiConfig config;
  config.num_nodes = kNodes;
  config.window_len = kLen;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.virtual_nodes = 2;
  config.diffusion_emb_dim = 8;
  config.temporal_emb_dim = 8;
  config.node_emb_dim = 4;
  config.adaptive_rank = 4;
  config.graph_diffusion_steps = 1;
  return config;
}

Tensor ChainAdjacency() {
  Tensor adjacency(Shape{kNodes, kNodes});
  for (int64_t i = 0; i + 1 < kNodes; ++i) {
    adjacency.at({i, i + 1}) = 1.0f;
    adjacency.at({i + 1, i}) = 1.0f;
  }
  return adjacency;
}

std::shared_ptr<core::PristiModel> MakeTinyModel(uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<core::PristiModel>(TinyConfig(), ChainAdjacency(),
                                             rng);
}

serve::ModelSlot SlotFor(const std::shared_ptr<core::PristiModel>& model) {
  return serve::ModelSlot{model, model.get()};
}

serve::ModelFactory TinyFactory() {
  return [] {
    auto staging = MakeTinyModel(999);  // seed irrelevant: load overwrites
    return SlotFor(staging);
  };
}

diffusion::NoiseSchedule TestSchedule() {
  return diffusion::NoiseSchedule::Quadratic(6, 1e-4f, 0.2f);
}

// Manual-pump configuration: no worker thread, PopBatch never waits on the
// clock, so every test step is a plain function call on one thread.
serve::ServeConfig ManualConfig() {
  serve::ServeConfig config;
  config.num_nodes = kNodes;
  config.window_len = kLen;
  config.max_batch = 8;
  config.max_wait_nanos = 0;
  config.queue_capacity = 16;
  config.impute.num_samples = 3;
  config.start_worker = false;
  return config;
}

diffusion::ImputationResult SoloImpute(core::PristiModel* model,
                                       const data::Sample& window,
                                       uint64_t seed,
                                       const diffusion::ImputeOptions& options) {
  Rng rng(seed);
  return diffusion::ImputeWindow(model, TestSchedule(), window, options, rng);
}

// Bitwise comparison: EXPECT_EQ on floats is exact, which is the contract.
void ExpectBitIdentical(const diffusion::ImputationResult& a,
                        const diffusion::ImputationResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t s = 0; s < a.samples.size(); ++s) {
    ASSERT_EQ(a.samples[s].shape(), b.samples[s].shape());
    for (int64_t i = 0; i < a.samples[s].numel(); ++i) {
      ASSERT_EQ(a.samples[s][i], b.samples[s][i])
          << "sample " << s << ", flat index " << i;
    }
  }
  for (int64_t i = 0; i < a.median.numel(); ++i) {
    ASSERT_EQ(a.median[i], b.median[i]) << "median flat index " << i;
  }
}

serve::ImputeRequest Request(const data::Sample& window, uint64_t seed) {
  serve::ImputeRequest request;
  request.window = window;
  request.seed = seed;
  return request;
}

// ---------------------------------------------------------------------------
// FakeClock
// ---------------------------------------------------------------------------

TEST(FakeClockTest, WaitReturnsImmediatelyOncePastDeadline) {
  FakeClock clock(100);
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(clock.WaitUntil(cv, lock, 100));
  EXPECT_TRUE(clock.WaitUntil(cv, lock, 50));
  EXPECT_EQ(clock.NowNanos(), 100);
}

TEST(FakeClockTest, AdvanceWakesParkedWaiter) {
  FakeClock clock;
  std::mutex mu;
  std::condition_variable cv;
  bool deadline_hit = false;
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (!clock.WaitUntil(cv, lock, 1000)) {
    }
    deadline_hit = true;
  });
  while (clock.blocked_waiters() < 1) std::this_thread::yield();
  clock.AdvanceNanos(999);  // wakes, deadline not reached, parks again
  clock.AdvanceNanos(1);
  waiter.join();
  EXPECT_TRUE(deadline_hit);
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, TryPushRejectsTypedWhenFull) {
  FakeClock clock;
  BoundedQueue<int> queue(2, &clock);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(queue.TryPush(&a).ok());
  EXPECT_TRUE(queue.TryPush(&b).ok());
  Status full = queue.TryPush(&c);
  EXPECT_EQ(full.code(), ErrorCode::kQueueFull);
  EXPECT_TRUE(full.retryable());
  EXPECT_EQ(c, 3);  // rejected item untouched
  EXPECT_EQ(queue.size(), 2);
}

TEST(BoundedQueueTest, TryPushAfterCloseRejectsCancelled) {
  FakeClock clock;
  BoundedQueue<int> queue(4, &clock);
  queue.Close();
  int a = 1;
  Status closed = queue.TryPush(&a);
  EXPECT_EQ(closed.code(), ErrorCode::kCancelled);
  EXPECT_FALSE(closed.retryable());
}

TEST(BoundedQueueTest, PopBatchFlushesImmediatelyAtMaxBatch) {
  FakeClock clock;
  BoundedQueue<int> queue(8, &clock);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(queue.TryPush(&v).ok());
  }
  // Enough queued: returns without consulting the deadline, FIFO order.
  std::vector<int> batch = queue.PopBatch(3, 1'000'000);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 0);
  EXPECT_EQ(batch[2], 2);
  EXPECT_EQ(queue.size(), 2);
}

TEST(BoundedQueueTest, PopBatchDeadlineKeyedToOldestItem) {
  FakeClock clock;
  BoundedQueue<int> queue(8, &clock);
  int first = 1;
  ASSERT_TRUE(queue.TryPush(&first).ok());  // enqueued at t=0
  std::vector<int> batch;
  std::thread consumer([&] { batch = queue.PopBatch(4, 100); });
  while (clock.blocked_waiters() < 1) std::this_thread::yield();
  clock.AdvanceNanos(60);
  int second = 2;
  ASSERT_TRUE(queue.TryPush(&second).ok());  // enqueued at t=60
  // The deadline stays keyed to the FIRST item's enqueue (t=100), not the
  // second's (t=160): 40 more nanos flush both.
  clock.AdvanceNanos(40);
  consumer.join();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
}

TEST(BoundedQueueTest, CancelPendingHandsBackQueuedItems) {
  FakeClock clock;
  BoundedQueue<int> queue(8, &clock);
  for (int i = 0; i < 3; ++i) {
    int v = i * 10;
    ASSERT_TRUE(queue.TryPush(&v).ok());
  }
  std::vector<int> cancelled = queue.CancelPending();
  ASSERT_EQ(cancelled.size(), 3u);
  EXPECT_EQ(cancelled[2], 20);
  EXPECT_TRUE(queue.closed());
  EXPECT_TRUE(queue.PopBatch(4, 0).empty());  // closed + drained
}

// ---------------------------------------------------------------------------
// Coalesced == solo bit-identity
// ---------------------------------------------------------------------------

TEST(ServeDeterminism, CoalescedResponseBitIdenticalToSoloImputeWindow) {
  auto model = MakeTinyModel(12);
  serve::ServeConfig config = ManualConfig();
  std::vector<data::Sample> windows = {MakeWindow(1), MakeWindow(2),
                                       MakeWindow(3)};
  std::vector<uint64_t> seeds = {101, 202, 303};

  // Solo references first (guard: one model user at a time).
  std::vector<diffusion::ImputationResult> solo;
  for (size_t i = 0; i < windows.size(); ++i) {
    solo.push_back(
        SoloImpute(model.get(), windows[i], seeds[i], config.impute));
  }

  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              config);
  std::vector<std::future<serve::ImputeResponse>> futures;
  for (size_t i = 0; i < windows.size(); ++i) {
    futures.push_back(session.Submit(Request(windows[i], seeds[i])));
  }
  ASSERT_TRUE(session.PumpOnce());
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::ImputeResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.batch_size, 3);
    ExpectBitIdentical(response.result, solo[i]);
  }
  EXPECT_EQ(session.stats().batches, 1);
}

TEST(ServeDeterminism, ResponseInvariantToArrivalOrderAndBatchmates) {
  auto model = MakeTinyModel(12);
  serve::ServeConfig config = ManualConfig();
  data::Sample window = MakeWindow(5);
  const uint64_t seed = 4242;
  diffusion::ImputationResult reference =
      SoloImpute(model.get(), window, seed, config.impute);

  // Same request served last in a batch of three strangers...
  {
    serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                                config);
    auto f1 = session.Submit(Request(MakeWindow(6), 1));
    auto f2 = session.Submit(Request(MakeWindow(7), 2));
    auto f3 = session.Submit(Request(window, seed));
    ASSERT_TRUE(session.PumpOnce());
    ExpectBitIdentical(f3.get().result, reference);
    (void)f1.get();
    (void)f2.get();
  }
  // ...and first in a batch of one.
  {
    serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                                config);
    auto f1 = session.Submit(Request(window, seed));
    ASSERT_TRUE(session.PumpOnce());
    serve::ImputeResponse response = f1.get();
    EXPECT_EQ(response.batch_size, 1);
    ExpectBitIdentical(response.result, reference);
  }
}

TEST(ServeDeterminism, ResponseInvariantToPoolThreadCount) {
  auto model = MakeTinyModel(12);
  serve::ServeConfig config = ManualConfig();
  data::Sample window = MakeWindow(8);
  int64_t restore = ParallelThreadCount();

  auto serve_once = [&] {
    serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                                config);
    auto f1 = session.Submit(Request(window, 11));
    auto f2 = session.Submit(Request(MakeWindow(9), 22));
    session.PumpOnce();
    (void)f2.get();
    return f1.get().result;
  };
  SetParallelThreadCount(1);
  diffusion::ImputationResult one = serve_once();
  SetParallelThreadCount(4);
  diffusion::ImputationResult four = serve_once();
  SetParallelThreadCount(restore);
  ExpectBitIdentical(one, four);
}

// ---------------------------------------------------------------------------
// Batching policy with a scripted timeline (real worker + FakeClock)
// ---------------------------------------------------------------------------

TEST(ServeBatching, FlushesAsSoonAsBatchFills) {
  auto model = MakeTinyModel(12);
  FakeClock clock;
  serve::ServeConfig config = ManualConfig();
  config.start_worker = true;
  config.max_batch = 2;
  config.max_wait_nanos = 1'000'000'000;  // never reached: size flushes
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              config, &clock);
  auto f1 = session.Submit(Request(MakeWindow(1), 1));
  auto f2 = session.Submit(Request(MakeWindow(2), 2));
  // No clock advance: the batch flushes on size alone.
  EXPECT_EQ(f1.get().batch_size, 2);
  EXPECT_EQ(f2.get().batch_size, 2);
  session.Shutdown(serve::ServeSession::DrainMode::kDrain);
  EXPECT_EQ(session.stats().batches, 1);
  EXPECT_EQ(session.stats().max_batch_observed, 2);
}

TEST(ServeBatching, PartialBatchFlushesAtDeadline) {
  auto model = MakeTinyModel(12);
  FakeClock clock;
  serve::ServeConfig config = ManualConfig();
  config.start_worker = true;
  config.max_batch = 4;
  config.max_wait_nanos = 100;
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              config, &clock);
  auto f1 = session.Submit(Request(MakeWindow(1), 1));
  clock.AdvanceNanos(100);  // oldest (only) waiter hits its deadline
  serve::ImputeResponse response = f1.get();
  EXPECT_EQ(response.batch_size, 1);
  // Scripted time makes latency accounting exact: admitted at t=0, batch
  // started when the deadline fired at t=100.
  EXPECT_EQ(response.queue_nanos, 100);
  session.Shutdown(serve::ServeSession::DrainMode::kDrain);
}

TEST(ServeBatching, DeadlineKeyedToOldestRequestNotNewest) {
  auto model = MakeTinyModel(12);
  FakeClock clock;
  serve::ServeConfig config = ManualConfig();
  config.start_worker = true;
  config.max_batch = 4;
  config.max_wait_nanos = 100;
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              config, &clock);
  auto f1 = session.Submit(Request(MakeWindow(1), 1));  // admitted t=0
  while (clock.blocked_waiters() < 1) std::this_thread::yield();
  clock.AdvanceNanos(60);
  auto f2 = session.Submit(Request(MakeWindow(2), 2));  // admitted t=60
  clock.AdvanceNanos(40);  // t=100: the FIRST request's deadline
  serve::ImputeResponse r1 = f1.get();
  serve::ImputeResponse r2 = f2.get();
  EXPECT_EQ(r1.batch_size, 2);  // the late request coalesced in
  EXPECT_EQ(r2.batch_size, 2);
  EXPECT_EQ(r1.queue_nanos, 100);  // waited its full budget
  EXPECT_EQ(r2.queue_nanos, 40);   // rode the older request's deadline
  session.Shutdown(serve::ServeSession::DrainMode::kDrain);
}

// ---------------------------------------------------------------------------
// Fault injection: checkpoint hot-reload
// ---------------------------------------------------------------------------

class ServeReloadTest : public ::testing::Test {
 protected:
  // Writes model B's weights (visibly different from A's) to a checkpoint.
  void SetUp() override {
    model_a_ = MakeTinyModel(12);
    model_b_ = MakeTinyModel(77);
    ckpt_path_ = tmp_.File("weights_b.ckpt");
    ASSERT_TRUE(
        serialize::SaveModuleCheckpointFile(*model_b_, ckpt_path_).ok());
  }

  pristi::testing::TestTempDir tmp_;
  std::shared_ptr<core::PristiModel> model_a_;
  std::shared_ptr<core::PristiModel> model_b_;
  std::string ckpt_path_;
};

TEST_F(ServeReloadTest, ReloadSwapsBetweenBatchesBitExactly) {
  serve::ServeConfig config = ManualConfig();
  data::Sample window = MakeWindow(3);
  diffusion::ImputationResult on_a =
      SoloImpute(model_a_.get(), window, 7, config.impute);
  diffusion::ImputationResult on_b =
      SoloImpute(model_b_.get(), window, 7, config.impute);

  serve::ServeSession session(SlotFor(model_a_), TinyFactory(),
                              TestSchedule(), config);
  auto f1 = session.Submit(Request(window, 7));
  ASSERT_TRUE(session.PumpOnce());
  ExpectBitIdentical(f1.get().result, on_a);

  ASSERT_TRUE(session.ReloadCheckpoint(ckpt_path_).ok());
  auto f2 = session.Submit(Request(window, 7));
  ASSERT_TRUE(session.PumpOnce());
  // After the swap the session answers exactly as a fresh model B would.
  ExpectBitIdentical(f2.get().result, on_b);
  EXPECT_EQ(session.stats().reloads_applied, 1);
}

TEST_F(ServeReloadTest, TruncatedCheckpointRejectedOldModelKeepsServing) {
  serve::ServeConfig config = ManualConfig();
  data::Sample window = MakeWindow(4);
  diffusion::ImputationResult on_a =
      SoloImpute(model_a_.get(), window, 9, config.impute);

  serve::ServeSession session(SlotFor(model_a_), TinyFactory(),
                              TestSchedule(), config);
  uintmax_t full_size = std::filesystem::file_size(ckpt_path_);
  std::filesystem::resize_file(ckpt_path_, full_size / 2);
  Status status = session.ReloadCheckpoint(ckpt_path_);
  EXPECT_FALSE(status.ok()) << "truncated checkpoint must be rejected";

  auto f1 = session.Submit(Request(window, 9));
  ASSERT_TRUE(session.PumpOnce());
  ExpectBitIdentical(f1.get().result, on_a);  // weights untouched
  EXPECT_EQ(session.stats().reloads_rejected, 1);
  EXPECT_EQ(session.stats().reloads_applied, 0);
}

TEST_F(ServeReloadTest, BitFlippedCheckpointRejectedOldModelKeepsServing) {
  serve::ServeConfig config = ManualConfig();
  data::Sample window = MakeWindow(5);
  diffusion::ImputationResult on_a =
      SoloImpute(model_a_.get(), window, 13, config.impute);

  serve::ServeSession session(SlotFor(model_a_), TinyFactory(),
                              TestSchedule(), config);
  uintmax_t full_size = std::filesystem::file_size(ckpt_path_);
  {
    std::fstream file(ckpt_path_,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(full_size / 2));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(full_size / 2));
    file.put(static_cast<char>(byte ^ 0x5a));
  }
  Status status = session.ReloadCheckpoint(ckpt_path_);
  EXPECT_FALSE(status.ok()) << "bit-flipped checkpoint must fail its CRC";

  auto f1 = session.Submit(Request(window, 13));
  ASSERT_TRUE(session.PumpOnce());
  ExpectBitIdentical(f1.get().result, on_a);
  EXPECT_EQ(session.stats().reloads_rejected, 1);
}

// A file without the PRSTCKPT magic — here model B's checkpoint with its
// magic overwritten — is rejected typed before any weight reaches the
// staging model.
TEST_F(ServeReloadTest, NonCheckpointFileRejectedTypedOldModelKeepsServing) {
  serve::ServeConfig config = ManualConfig();
  data::Sample window = MakeWindow(6);
  diffusion::ImputationResult on_a =
      SoloImpute(model_a_.get(), window, 15, config.impute);

  serve::ServeSession session(SlotFor(model_a_), TinyFactory(),
                              TestSchedule(), config);
  {
    std::fstream file(ckpt_path_,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.write("NOTACKPT", 8);
  }
  Status status = session.ReloadCheckpoint(ckpt_path_);
  EXPECT_EQ(status.code(), ErrorCode::kBadMagic) << status.ToString();

  auto f1 = session.Submit(Request(window, 15));
  ASSERT_TRUE(session.PumpOnce());
  ExpectBitIdentical(f1.get().result, on_a);
  EXPECT_EQ(session.stats().reloads_rejected, 1);
  EXPECT_EQ(session.stats().reloads_applied, 0);
}

TEST_F(ServeReloadTest, ReloadWithoutFactoryRejectedTyped) {
  serve::ServeSession session(SlotFor(model_a_), nullptr, TestSchedule(),
                              ManualConfig());
  Status status = session.ReloadCheckpoint(ckpt_path_);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidRequest);
}

// ---------------------------------------------------------------------------
// Admission and shutdown
// ---------------------------------------------------------------------------

TEST(ServeAdmission, FullQueueRejectsTypedRetryable) {
  auto model = MakeTinyModel(12);
  serve::ServeConfig config = ManualConfig();
  config.queue_capacity = 2;
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              config);
  auto f1 = session.Submit(Request(MakeWindow(1), 1));
  auto f2 = session.Submit(Request(MakeWindow(2), 2));
  auto f3 = session.Submit(Request(MakeWindow(3), 3));
  // The rejection resolves immediately, before any batch runs.
  serve::ImputeResponse rejected = f3.get();
  EXPECT_EQ(rejected.status.code(), ErrorCode::kQueueFull);
  EXPECT_TRUE(rejected.status.retryable());
  ASSERT_TRUE(session.PumpOnce());
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_EQ(session.stats().rejected_full, 1);
  EXPECT_EQ(session.stats().admitted, 2);
}

TEST(ServeAdmission, MisshapenWindowRejectedTyped) {
  auto model = MakeTinyModel(12);
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              ManualConfig());
  Rng rng(1);
  data::Sample bad;
  bad.values = Tensor::Randn({kNodes + 1, kLen}, rng);  // wrong N
  bad.observed = Tensor::Ones({kNodes + 1, kLen});
  serve::ImputeResponse response =
      session.Submit(Request(bad, 1)).get();
  EXPECT_EQ(response.status.code(), ErrorCode::kInvalidRequest);
  EXPECT_FALSE(response.status.retryable());
  EXPECT_EQ(session.stats().rejected_invalid, 1);
}

TEST(ServeAdmission, NegativeStepsOverrideRejectedTyped) {
  // A request carrying a nonsensical step-count override is rejected at
  // admission, resolving immediately with a typed, non-retryable code.
  auto model = MakeTinyModel(12);
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              ManualConfig());
  serve::ImputeRequest request = Request(MakeWindow(1), 1);
  request.num_inference_steps = -3;
  serve::ImputeResponse response = session.Submit(std::move(request)).get();
  EXPECT_EQ(response.status.code(), ErrorCode::kInvalidRequest);
  EXPECT_FALSE(response.status.retryable());
  EXPECT_EQ(session.stats().rejected_invalid, 1);
  EXPECT_EQ(session.stats().admitted, 0);
}

TEST(ServeAdmission, NonFiniteObservedValueRejectedTyped) {
  auto model = MakeTinyModel(12);
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              ManualConfig());
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (float bad : kBad) {
    data::Sample window = MakeWindow(1);
    ASSERT_EQ(window.observed.at({2, 5}), 1.0f);
    window.values.at({2, 5}) = bad;
    auto future = session.Submit(Request(window, 1));
    // Rejection resolves at admission; nothing is pumped in this test.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    serve::ImputeResponse response = future.get();
    EXPECT_EQ(response.status.code(), ErrorCode::kInvalidRequest);
    EXPECT_FALSE(response.status.retryable());
  }
  EXPECT_EQ(session.stats().rejected_invalid, 3);
  EXPECT_EQ(session.stats().admitted, 0);

  // Only observed positions are checked: a NaN where observed is 0 is
  // admitted as before.
  data::Sample hidden = MakeWindow(1);
  ASSERT_EQ(hidden.observed.at({0, 0}), 0.0f);
  hidden.values.at({0, 0}) = std::numeric_limits<float>::quiet_NaN();
  auto future = session.Submit(Request(hidden, 1));
  EXPECT_EQ(session.stats().admitted, 1);
  EXPECT_EQ(session.stats().rejected_invalid, 3);
  ASSERT_TRUE(session.PumpOnce());
  EXPECT_TRUE(future.get().status.ok());
}

// An admitted NaN at an unobserved cell is never read: the response is
// bitwise the one the same request gets with 0.0 there.
TEST(ServeAdmission, NanAtUnobservedCellAnswersLikeZero) {
  auto model = MakeTinyModel(12);
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              ManualConfig());
  data::Sample zeroed = MakeWindow(1);
  ASSERT_EQ(zeroed.observed.at({0, 0}), 0.0f);
  zeroed.values.at({0, 0}) = 0.0f;
  data::Sample poisoned = zeroed;
  poisoned.values.at({0, 0}) = std::numeric_limits<float>::quiet_NaN();
  auto zeroed_future = session.Submit(Request(zeroed, 7));
  auto poisoned_future = session.Submit(Request(poisoned, 7));
  ASSERT_TRUE(session.PumpOnce());
  serve::ImputeResponse zeroed_response = zeroed_future.get();
  serve::ImputeResponse poisoned_response = poisoned_future.get();
  ASSERT_TRUE(zeroed_response.status.ok());
  ASSERT_TRUE(poisoned_response.status.ok());
  ExpectBitIdentical(poisoned_response.result, zeroed_response.result);
}

TEST(ServeDeterminism, PerRequestSamplerOverrideMatchesSoloBits) {
  // A mixed batch — session-default DDPM, a DDIM override, and two PLMS
  // overrides — must return each request's solo ImputeWindow bits, even
  // though all four coalesce into one pump.
  auto model = MakeTinyModel(12);
  serve::ServeConfig config = ManualConfig();
  std::vector<data::Sample> windows = {MakeWindow(1), MakeWindow(2),
                                       MakeWindow(3), MakeWindow(4)};
  std::vector<uint64_t> seeds = {101, 202, 303, 404};
  std::vector<diffusion::ImputeOptions> options(4, config.impute);
  options[1].sampler = diffusion::SamplerKind::kDdim;
  options[1].num_inference_steps = 3;
  options[2].sampler = diffusion::SamplerKind::kPlms;
  options[2].num_inference_steps = 3;
  options[3].sampler = diffusion::SamplerKind::kPlms;
  options[3].num_inference_steps = 3;

  std::vector<diffusion::ImputationResult> solo;
  for (size_t i = 0; i < windows.size(); ++i) {
    solo.push_back(SoloImpute(model.get(), windows[i], seeds[i], options[i]));
  }

  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              config);
  std::vector<std::future<serve::ImputeResponse>> futures;
  for (size_t i = 0; i < windows.size(); ++i) {
    serve::ImputeRequest request = Request(windows[i], seeds[i]);
    if (i > 0) {
      request.sampler = options[i].sampler;
      request.num_inference_steps = options[i].num_inference_steps;
    }
    futures.push_back(session.Submit(std::move(request)));
  }
  ASSERT_TRUE(session.PumpOnce());
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::ImputeResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.batch_size, 4);
    ExpectBitIdentical(response.result, solo[i]);
  }
  EXPECT_EQ(session.stats().batches, 1);
}

TEST(ServeShutdown, DrainAnswersEverythingAdmitted) {
  auto model = MakeTinyModel(12);
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              ManualConfig());
  auto f1 = session.Submit(Request(MakeWindow(1), 1));
  auto f2 = session.Submit(Request(MakeWindow(2), 2));
  session.Shutdown(serve::ServeSession::DrainMode::kDrain);
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_EQ(session.stats().completed, 2);
}

TEST(ServeShutdown, CancelResolvesQueuedRequestsTyped) {
  auto model = MakeTinyModel(12);
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              ManualConfig());
  auto f1 = session.Submit(Request(MakeWindow(1), 1));
  auto f2 = session.Submit(Request(MakeWindow(2), 2));
  session.Shutdown(serve::ServeSession::DrainMode::kCancel);
  EXPECT_EQ(f1.get().status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(f2.get().status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(session.stats().cancelled, 2);
  EXPECT_EQ(session.stats().completed, 0);
}

TEST(ServeShutdown, SubmitAfterShutdownResolvesCancelled) {
  auto model = MakeTinyModel(12);
  serve::ServeSession session(SlotFor(model), nullptr, TestSchedule(),
                              ManualConfig());
  session.Shutdown(serve::ServeSession::DrainMode::kDrain);
  serve::ImputeResponse response =
      session.Submit(Request(MakeWindow(1), 1)).get();
  EXPECT_EQ(response.status.code(), ErrorCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Exclusive model access
// ---------------------------------------------------------------------------

#if PRISTI_DCHECK_IS_ON
using ModelAccessGuardDeathTest = ::testing::Test;

TEST_F(ModelAccessGuardDeathTest, OverlappingHoldersOfOneModelAbort) {
  int model_stand_in = 0;
  diffusion::ModelAccessGuard held(&model_stand_in, "serve_test_first");
  EXPECT_DEATH(
      {
        diffusion::ModelAccessGuard overlap(&model_stand_in,
                                            "serve_test_second");
      },
      "concurrent use");
}

TEST_F(ModelAccessGuardDeathTest, DistinctModelsAndReacquisitionAreFine) {
  int model_a = 0, model_b = 0;
  {
    diffusion::ModelAccessGuard first(&model_a, "serve_test");
    diffusion::ModelAccessGuard other(&model_b, "serve_test");
  }
  // Released guards can be re-taken.
  diffusion::ModelAccessGuard again(&model_a, "serve_test");
}
#endif  // PRISTI_DCHECK_IS_ON

// ---------------------------------------------------------------------------
// The 8-client hammer (the TSan regression)
// ---------------------------------------------------------------------------

TEST(ServeHammer, EightClientsOneSessionRealClock) {
  auto model = MakeTinyModel(12);
  serve::ServeConfig config;
  config.num_nodes = kNodes;
  config.window_len = kLen;
  config.max_batch = 4;
  config.max_wait_nanos = 200'000;  // 0.2 ms: plenty of partial flushes
  config.queue_capacity = 64;
  config.impute.num_samples = 2;
  config.start_worker = true;
  serve::ServeSession session(SlotFor(model), TinyFactory(), TestSchedule(),
                              config);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 3;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        uint64_t seed = static_cast<uint64_t>(c * 100 + r);
        serve::ImputeResponse response =
            session.Submit(Request(MakeWindow(seed % 5), seed)).get();
        if (response.status.ok()) ++ok_counts[c];
        // A retryable queue-full is legal under load; anything else is not.
        if (!response.status.ok()) {
          EXPECT_TRUE(response.status.retryable())
              << response.status.ToString();
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  session.Shutdown(serve::ServeSession::DrainMode::kDrain);

  serve::ServeSession::Stats stats = session.stats();
  int total_ok = 0;
  for (int count : ok_counts) total_ok += count;
  EXPECT_EQ(total_ok, stats.completed);
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(stats.admitted + stats.rejected_full,
            kClients * kRequestsPerClient);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.max_batch_observed, config.max_batch);
}

}  // namespace
}  // namespace pristi
