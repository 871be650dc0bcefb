// Sampler-equivalence suite for the sample-batched reverse-diffusion path.
//
// The batched sampler stacks all `num_samples` chains into one (S, N, L)
// tensor and makes a single model call per reverse step; the sequential
// fallback (ImputeOptions::sequential_fallback) runs the same chains one at
// a time at batch size 1 and is the reference oracle. Both draw from
// identical counter-seeded per-chain RNG streams (MakeChainStreams), so:
//
//   * DDIM/PLMS (deterministic after the initial draw) must agree per
//     entry — for PLMS the multistep eps history is stacked chain-major,
//     so a chain's history slice is the same whether it runs solo or
//     batched;
//   * DDPM ancestral sampling must agree because every chain's noise
//     depends only on (root seed, chain index), not on execution order;
//   * results must be invariant to the thread-pool size, because every
//     parallel kernel assigns each output element to exactly one thread
//     with a fixed accumulation order;
//   * mixed-sampler coalesced batches must return each request's solo bits
//     (ImputeWindowsCoalesced groups like-configured requests without
//     renumbering their chains).
//
// Also hosts the seeded golden regressions for the batched DDPM and PLMS
// samplers and the ImputationResult property tests.
//
// Regenerating the goldens after an INTENTIONAL sampler change:
//   PRISTI_REGEN_GOLDEN=1 ./build/tests/sampler_equivalence_test
//     --gtest_filter='GoldenRegression.*'
// then commit the rewritten tests/golden/sampler_batched_16node.txt and
// tests/golden/sampler_plms_16node.txt.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/parallel.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "pristi/pristi_model.h"

namespace pristi::diffusion {
namespace {

namespace t = ::pristi::tensor;
using t::Shape;
using t::Tensor;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

// Deterministic window with ~30% of entries hidden in a fixed pattern.
data::Sample MakeWindow(int64_t n, int64_t l, uint64_t seed) {
  Rng rng(seed);
  data::Sample sample;
  sample.values = Tensor::Randn({n, l}, rng);
  sample.observed = Tensor::Ones({n, l});
  sample.eval = Tensor::Zeros({n, l});
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      if ((node * 7 + step * 3) % 10 < 3) {
        sample.observed.at({node, step}) = 0.0f;
      }
    }
  }
  return sample;
}

// Small but real PriSTI noise predictor (attention + MPNN + layer norm all
// exercised), so batched-vs-sequential covers the full model forward.
// `virtual_nodes` must stay below `n` (the model CHECKs it).
std::unique_ptr<core::PristiModel> MakeTinyModel(int64_t n, int64_t l,
                                                 uint64_t seed,
                                                 int64_t virtual_nodes = 2) {
  core::PristiConfig config;
  config.num_nodes = n;
  config.window_len = l;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.virtual_nodes = virtual_nodes;
  config.diffusion_emb_dim = 8;
  config.temporal_emb_dim = 8;
  config.node_emb_dim = 4;
  config.adaptive_rank = 4;
  config.graph_diffusion_steps = 1;
  Tensor adjacency(Shape{n, n});
  for (int64_t i = 0; i + 1 < n; ++i) {
    adjacency.at({i, i + 1}) = 1.0f;
    adjacency.at({i + 1, i}) = 1.0f;
  }
  Rng rng(seed);
  return std::make_unique<core::PristiModel>(config, adjacency, rng);
}

// Asserts per-entry agreement of two imputation results with a readable
// location on failure.
void ExpectResultsClose(const ImputationResult& batched,
                        const ImputationResult& sequential, float atol) {
  ASSERT_EQ(batched.samples.size(), sequential.samples.size());
  for (size_t s = 0; s < batched.samples.size(); ++s) {
    const Tensor& a = batched.samples[s];
    const Tensor& b = sequential.samples[s];
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i) {
      ASSERT_NEAR(a[i], b[i], atol)
          << "sample " << s << ", flat index " << i;
    }
  }
  for (int64_t i = 0; i < batched.median.numel(); ++i) {
    ASSERT_NEAR(batched.median[i], sequential.median[i], atol)
        << "median flat index " << i;
  }
}

ImputationResult RunImpute(ConditionalNoisePredictor* model,
                           const NoiseSchedule& schedule,
                           const data::Sample& sample, ImputeOptions options,
                           uint64_t seed, bool sequential) {
  options.sequential_fallback = sequential;
  Rng rng(seed);
  return ImputeWindow(model, schedule, sample, options, rng);
}

// ---------------------------------------------------------------------------
// Chain-stream contract
// ---------------------------------------------------------------------------

TEST(ChainStreams, ConsumeOneDrawRegardlessOfCount) {
  Rng a(123), b(123);
  (void)MakeChainStreams(a, 3);
  (void)MakeChainStreams(b, 31);
  // Both parents advanced by exactly one engine draw -> identical continuation.
  EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(ChainStreams, ChainStreamDependsOnlyOnRootAndIndex) {
  Rng a(7), b(7);
  std::vector<Rng> few = MakeChainStreams(a, 2);
  std::vector<Rng> many = MakeChainStreams(b, 8);
  // Chain i's stream is identical whether 2 or 8 chains were derived.
  for (size_t i = 0; i < few.size(); ++i) {
    EXPECT_DOUBLE_EQ(few[i].Normal(), many[i].Normal()) << "chain " << i;
  }
  // Distinct chains differ.
  EXPECT_NE(many[2].Normal(), many[3].Normal());
}

// ---------------------------------------------------------------------------
// Batched == sequential equivalence
// ---------------------------------------------------------------------------

TEST(SamplerEquivalence, BatchedDdimMatchesSequentialOracle) {
  const int64_t n = 6, l = 8;
  data::Sample sample = MakeWindow(n, l, 11);
  auto model = MakeTinyModel(n, l, 12);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(12, 1e-4f, 0.2f);
  // 6 of 12 kept steps == the old stride-2 DDIM subset.
  ImputeOptions options{.num_samples = 4, .sampler = SamplerKind::kDdim,
                        .num_inference_steps = 6};
  ImputationResult batched =
      RunImpute(model.get(), schedule, sample, options, 99, false);
  ImputationResult sequential =
      RunImpute(model.get(), schedule, sample, options, 99, true);
  ExpectResultsClose(batched, sequential, 1e-5f);
}

TEST(SamplerEquivalence, BatchedDdpmMatchesSequentialOracle) {
  // Ancestral sampling draws fresh noise every step; the counter-seeded
  // per-chain streams make the batched draw order irrelevant.
  const int64_t n = 6, l = 8;
  data::Sample sample = MakeWindow(n, l, 21);
  auto model = MakeTinyModel(n, l, 22);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(10, 1e-4f, 0.2f);
  ImputeOptions options{.num_samples = 5};
  ImputationResult batched =
      RunImpute(model.get(), schedule, sample, options, 77, false);
  ImputationResult sequential =
      RunImpute(model.get(), schedule, sample, options, 77, true);
  ExpectResultsClose(batched, sequential, 1e-5f);
}

TEST(SamplerEquivalence, ThreadCountInvariance) {
  // The batched result must be bit-identical whether the pool runs 1 or 4
  // threads: chunking only partitions disjoint output ranges.
  const int64_t n = 6, l = 8;
  data::Sample sample = MakeWindow(n, l, 31);
  auto model = MakeTinyModel(n, l, 32);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(8, 1e-4f, 0.2f);
  ImputeOptions options{.num_samples = 4};
  int64_t restore = ParallelThreadCount();
  SetParallelThreadCount(1);
  ImputationResult one =
      RunImpute(model.get(), schedule, sample, options, 55, false);
  SetParallelThreadCount(4);
  ImputationResult four =
      RunImpute(model.get(), schedule, sample, options, 55, false);
  SetParallelThreadCount(restore);
  ASSERT_EQ(one.samples.size(), four.samples.size());
  for (size_t s = 0; s < one.samples.size(); ++s) {
    EXPECT_TRUE(t::AllClose(one.samples[s], four.samples[s], 0.0f, 0.0f))
        << "sample " << s << " differs between 1 and 4 threads";
  }
  EXPECT_TRUE(t::AllClose(one.median, four.median, 0.0f, 0.0f));
}

TEST(SamplerEquivalence, BatchedPlmsMatchesSequentialOracle) {
  // PLMS is the interesting case for batched == sequential: the stepper
  // carries state between steps (the eps history and the Runge-Kutta
  // intermediates), all stacked chain-major. The sequential oracle runs
  // each chain with its own fresh stepper, so agreement proves the batched
  // history never mixes chains.
  const int64_t n = 6, l = 8;
  data::Sample sample = MakeWindow(n, l, 81);
  auto model = MakeTinyModel(n, l, 82);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(12, 1e-4f, 0.2f);
  ImputeOptions options{.num_samples = 4, .sampler = SamplerKind::kPlms,
                        .num_inference_steps = 6};
  ImputationResult batched =
      RunImpute(model.get(), schedule, sample, options, 44, false);
  ImputationResult sequential =
      RunImpute(model.get(), schedule, sample, options, 44, true);
  ExpectResultsClose(batched, sequential, 1e-5f);
}

TEST(SamplerEquivalence, PlmsThreadCountInvariance) {
  // Bit-invariance at 1 vs 4 pool threads for the multistep sampler: the
  // Adams-Bashforth combination and the RK warm-up are elementwise with a
  // fixed per-entry evaluation order, so chunking cannot change any bit.
  const int64_t n = 6, l = 8;
  data::Sample sample = MakeWindow(n, l, 91);
  auto model = MakeTinyModel(n, l, 92);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(12, 1e-4f, 0.2f);
  ImputeOptions options{.num_samples = 4, .sampler = SamplerKind::kPlms,
                        .num_inference_steps = 6};
  int64_t restore = ParallelThreadCount();
  SetParallelThreadCount(1);
  ImputationResult one =
      RunImpute(model.get(), schedule, sample, options, 33, false);
  SetParallelThreadCount(4);
  ImputationResult four =
      RunImpute(model.get(), schedule, sample, options, 33, false);
  SetParallelThreadCount(restore);
  ASSERT_EQ(one.samples.size(), four.samples.size());
  for (size_t s = 0; s < one.samples.size(); ++s) {
    EXPECT_TRUE(t::AllClose(one.samples[s], four.samples[s], 0.0f, 0.0f))
        << "PLMS sample " << s << " differs between 1 and 4 threads";
  }
  EXPECT_TRUE(t::AllClose(one.median, four.median, 0.0f, 0.0f));
}

TEST(CoalescedEquivalence, MixedSamplerBatchBitIdenticalToSolo) {
  // One coalesced batch carrying all three samplers (plus two requests
  // sharing the PLMS group): every response must be BIT-identical to the
  // solo ImputeWindow run with the request's own options and Rng(seed),
  // at any thread count.
  const int64_t n = 6, l = 8;
  auto model = MakeTinyModel(n, l, 102);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(12, 1e-4f, 0.2f);
  std::vector<data::Sample> windows = {
      MakeWindow(n, l, 111), MakeWindow(n, l, 112), MakeWindow(n, l, 113),
      MakeWindow(n, l, 114)};
  std::vector<uint64_t> seeds = {201, 202, 203, 204};
  std::vector<ImputeOptions> options = {
      {.num_samples = 2, .sampler = SamplerKind::kDdpm},
      {.num_samples = 2, .sampler = SamplerKind::kDdim,
       .num_inference_steps = 6},
      {.num_samples = 2, .sampler = SamplerKind::kPlms,
       .num_inference_steps = 6},
      {.num_samples = 2, .sampler = SamplerKind::kPlms,
       .num_inference_steps = 6},
  };
  int64_t restore = ParallelThreadCount();
  for (int64_t threads : {int64_t{1}, int64_t{4}}) {
    SetParallelThreadCount(threads);
    std::vector<ImputationResult> coalesced = ImputeWindowsCoalesced(
        model.get(), schedule, windows, seeds, options);
    ASSERT_EQ(coalesced.size(), windows.size());
    for (size_t r = 0; r < windows.size(); ++r) {
      Rng solo_rng(seeds[r]);
      ImputationResult solo = ImputeWindow(model.get(), schedule, windows[r],
                                           options[r], solo_rng);
      ASSERT_EQ(coalesced[r].samples.size(), solo.samples.size());
      for (size_t s = 0; s < solo.samples.size(); ++s) {
        EXPECT_TRUE(t::AllClose(coalesced[r].samples[s], solo.samples[s],
                                0.0f, 0.0f))
            << "threads=" << threads << " request " << r << " sample " << s
            << " (" << SamplerKindName(options[r].sampler)
            << ") not bit-identical to solo";
      }
      EXPECT_TRUE(
          t::AllClose(coalesced[r].median, solo.median, 0.0f, 0.0f))
          << "threads=" << threads << " request " << r << " median";
    }
  }
  SetParallelThreadCount(restore);
}

TEST(CoalescedEquivalence, DegenerateWindowsMatchSoloAndStayFinite) {
  // Edge shapes and masks a serving client can send: a single node, a
  // single step, a single sample, and windows with nothing or everything
  // observed. For each, one coalesced batch carrying all three samplers
  // must return every request's solo bits, copy observed entries through
  // exactly, and produce only finite samples.
  struct Case {
    const char* name;
    int64_t n, l, samples;
    enum { kMixed, kAllObserved, kAllMissing } mask;
  };
  const Case cases[] = {
      {"N=1", 1, 8, 2, Case::kMixed},
      {"L=1", 6, 1, 2, Case::kMixed},
      {"S=1", 6, 8, 1, Case::kMixed},
      {"all-observed", 6, 8, 2, Case::kAllObserved},
      {"all-missing", 6, 8, 2, Case::kAllMissing},
  };
  NoiseSchedule schedule = NoiseSchedule::Quadratic(8, 1e-4f, 0.2f);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto model = MakeTinyModel(c.n, c.l, 131, c.n <= 2 ? 0 : 2);
    data::Sample window = MakeWindow(c.n, c.l, 132);
    if (c.mask != Case::kMixed) {
      window.observed =
          c.mask == Case::kAllObserved ? Tensor::Ones({c.n, c.l})
                                       : Tensor::Zeros({c.n, c.l});
    }
    std::vector<data::Sample> windows(3, window);
    std::vector<uint64_t> seeds = {301, 302, 303};
    std::vector<ImputeOptions> options = {
        {.num_samples = c.samples, .sampler = SamplerKind::kDdpm},
        {.num_samples = c.samples, .sampler = SamplerKind::kDdim,
         .num_inference_steps = 4},
        {.num_samples = c.samples, .sampler = SamplerKind::kPlms,
         .num_inference_steps = 4},
    };
    std::vector<ImputationResult> coalesced = ImputeWindowsCoalesced(
        model.get(), schedule, windows, seeds, options);
    ASSERT_EQ(coalesced.size(), windows.size());
    for (size_t r = 0; r < windows.size(); ++r) {
      SCOPED_TRACE(SamplerKindName(options[r].sampler));
      Rng solo_rng(seeds[r]);
      ImputationResult solo = ImputeWindow(model.get(), schedule, window,
                                           options[r], solo_rng);
      ASSERT_EQ(coalesced[r].samples.size(),
                static_cast<size_t>(c.samples));
      ASSERT_EQ(solo.samples.size(), static_cast<size_t>(c.samples));
      for (size_t s = 0; s < solo.samples.size(); ++s) {
        const Tensor& sample = coalesced[r].samples[s];
        EXPECT_TRUE(t::AllClose(sample, solo.samples[s], 0.0f, 0.0f))
            << "sample " << s << " not bit-identical to solo";
        for (int64_t i = 0; i < sample.numel(); ++i) {
          ASSERT_TRUE(std::isfinite(sample[i]))
              << "sample " << s << ", flat index " << i;
          if (window.observed[i] != 0.0f) {
            ASSERT_EQ(sample[i], window.values[i])
                << "observed entry not copied through: sample " << s
                << ", flat index " << i;
          }
        }
      }
      EXPECT_TRUE(t::AllClose(coalesced[r].median, solo.median, 0.0f, 0.0f));
    }
  }
}

TEST(SamplerKindNames, ParseAndPrintRoundTrip) {
  SamplerKind kind = SamplerKind::kDdpm;
  EXPECT_TRUE(ParseSamplerKind("ddim", &kind).ok());
  EXPECT_EQ(kind, SamplerKind::kDdim);
  EXPECT_TRUE(ParseSamplerKind("plms", &kind).ok());
  EXPECT_EQ(kind, SamplerKind::kPlms);
  EXPECT_TRUE(ParseSamplerKind("ddpm", &kind).ok());
  EXPECT_EQ(kind, SamplerKind::kDdpm);
  // Unknown names, including the family name "pndm", come back as a typed
  // invalid request that lists the valid names, and leave *out untouched.
  kind = SamplerKind::kPlms;
  for (const char* bad : {"pndm", "euler", "", "DDIM"}) {
    SCOPED_TRACE(bad);
    Status status = ParseSamplerKind(bad, &kind);
    EXPECT_EQ(status.code(), ErrorCode::kInvalidRequest);
    EXPECT_FALSE(status.retryable());
    EXPECT_NE(status.message().find("ddpm|ddim|plms"), std::string::npos);
    EXPECT_EQ(kind, SamplerKind::kPlms);
  }
  EXPECT_STREQ(SamplerKindName(SamplerKind::kDdpm), "ddpm");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kDdim), "ddim");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kPlms), "plms");
}

TEST(PlanReverseSteps, SubsetRuleMatchesClassicStrides) {
  NoiseSchedule schedule = NoiseSchedule::Quadratic(30, 1e-4f, 0.2f);
  // Full schedule when steps <= 0 or >= T.
  for (int64_t k : {int64_t{0}, int64_t{-3}, int64_t{30}, int64_t{100}}) {
    std::vector<ReverseStep> plan = PlanReverseSteps(schedule, k);
    ASSERT_EQ(plan.size(), 30u) << "k=" << k;
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i].step, 30 - static_cast<int64_t>(i));
      EXPECT_EQ(plan[i].prev_step, 30 - static_cast<int64_t>(i) - 1);
    }
  }
  // K dividing T reproduces the stride-T/K subset, always starting at T
  // and ending at stride.
  std::vector<ReverseStep> plan = PlanReverseSteps(schedule, 10);
  ASSERT_EQ(plan.size(), 10u);
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].step, 30 - 3 * static_cast<int64_t>(i));
  }
  EXPECT_EQ(plan.back().prev_step, 0);
  // Non-dividing K still yields K strictly decreasing kept steps in [1, T].
  plan = PlanReverseSteps(schedule, 7);
  ASSERT_EQ(plan.size(), 7u);
  EXPECT_EQ(plan.front().step, 30);
  for (size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LT(plan[i].step, plan[i - 1].step);
    EXPECT_GE(plan[i].step, 1);
  }
}

TEST(SamplerEquivalence, SequentialFallbackPreservesObservedEntries) {
  const int64_t n = 6, l = 8;
  data::Sample sample = MakeWindow(n, l, 41);
  auto model = MakeTinyModel(n, l, 42);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(6, 1e-4f, 0.2f);
  for (bool sequential : {false, true}) {
    ImputationResult result = RunImpute(model.get(), schedule, sample,
                                        {.num_samples = 3}, 66, sequential);
    for (const Tensor& generated : result.samples) {
      for (int64_t node = 0; node < n; ++node) {
        for (int64_t step = 0; step < l; ++step) {
          if (sample.observed.at({node, step}) > 0.5f) {
            EXPECT_FLOAT_EQ(generated.at({node, step}),
                            sample.values.at({node, step}))
                << "sequential=" << sequential << " node=" << node
                << " step=" << step;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ImputationResult property tests
// ---------------------------------------------------------------------------

TEST(ImputationResultProperties, QuantileMonotonicInQ) {
  Rng rng(51);
  ImputationResult result;
  for (int i = 0; i < 9; ++i) {
    result.samples.push_back(Tensor::Randn({3, 4}, rng));
  }
  for (int64_t node = 0; node < 3; ++node) {
    for (int64_t step = 0; step < 4; ++step) {
      float prev = result.Quantile(node, step, 0.0);
      for (double q = 0.05; q <= 1.0 + 1e-9; q += 0.05) {
        float cur = result.Quantile(node, step, q);
        EXPECT_GE(cur, prev) << "q=" << q << " node=" << node
                             << " step=" << step;
        prev = cur;
      }
    }
  }
}

TEST(ImputationResultProperties, MedianOfOddConstantSampleSetIsExact) {
  ImputationResult result;
  for (float value : {3.0f, 1.0f, 4.0f, 1.5f, 5.0f}) {
    result.samples.push_back(Tensor::Full({2, 2}, value));
  }
  // Sorted: 1, 1.5, 3, 4, 5 -> the odd-count median is exactly the middle
  // element, no interpolation.
  EXPECT_FLOAT_EQ(result.Quantile(0, 0, 0.5), 3.0f);
  EXPECT_FLOAT_EQ(result.Quantile(1, 1, 0.5), 3.0f);
  // Extremes are exact too.
  EXPECT_FLOAT_EQ(result.Quantile(0, 0, 0.0), 1.0f);
  EXPECT_FLOAT_EQ(result.Quantile(0, 0, 1.0), 5.0f);
}

TEST(ImputationResultProperties, MergedOutputsEqualObservationsOnObserved) {
  // Mask-preservation invariant across batched merge: every generated
  // sample and the median agree with the observations wherever observed.
  const int64_t n = 5, l = 6;
  data::Sample sample = MakeWindow(n, l, 61);
  auto model = MakeTinyModel(n, l, 62);
  NoiseSchedule schedule = NoiseSchedule::Quadratic(6, 1e-4f, 0.2f);
  ImputationResult result =
      RunImpute(model.get(), schedule, sample, {.num_samples = 7}, 88, false);
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      if (sample.observed.at({node, step}) <= 0.5f) continue;
      float truth = sample.values.at({node, step});
      for (const Tensor& generated : result.samples) {
        EXPECT_FLOAT_EQ(generated.at({node, step}), truth);
      }
      EXPECT_FLOAT_EQ(result.median.at({node, step}), truth);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden regression
// ---------------------------------------------------------------------------

// Deterministic affine predictor: nontrivial (uses the noisy stream and the
// conditional interpolation) but free of matmuls/attention, so the golden
// pins the SAMPLER's arithmetic and RNG-stream contract rather than model
// codegen, and stays stable across compilers and optimization levels.
class AffinePredictor : public ConditionalNoisePredictor {
 public:
  Variable PredictNoise(const Tensor& noisy, const DiffusionBatch& batch,
                        int64_t step) override {
    float scale = 0.1f + 0.001f * static_cast<float>(step);
    Tensor out = t::MulScalar(noisy, scale);
    // interpolated is (1, N, L) in the sequential path and (S, N, L) in the
    // batched path; both broadcast-free because ImputeWindow tiles it.
    out.AddInPlace(t::MulScalar(batch.interpolated, -0.05f));
    return autograd::Constant(std::move(out));
  }
  std::vector<Variable> Parameters() override { return {}; }
  void ZeroGrad() override {}
};

struct GoldenRow {
  int64_t node = 0, step = 0;
  float median = 0, q10 = 0, q90 = 0;
};

// Writes the "node step median q10 q90" golden format shared by every
// sampler golden in this suite.
void WriteGoldenFile(const std::string& path, const std::string& description,
                     const ImputationResult& result, int64_t n, int64_t l) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write golden " << path;
  out << "# " << description << "\n"
      << "# regen: PRISTI_REGEN_GOLDEN=1 ./sampler_equivalence_test "
         "--gtest_filter='GoldenRegression.*'\n"
      << n << " " << l << "\n";
  out.precision(9);
  out << std::scientific;
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      out << node << " " << step << " "
          << result.median.at({node, step}) << " "
          << result.Quantile(node, step, 0.1) << " "
          << result.Quantile(node, step, 0.9) << "\n";
    }
  }
}

// Loads a golden file and asserts the result matches it per entry, with a
// readable diff of every drifted entry on failure.
void ExpectMatchesGolden(const std::string& path,
                         const ImputationResult& result, int64_t n,
                         int64_t l) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << "; regenerate with PRISTI_REGEN_GOLDEN=1 ./sampler_equivalence_test"
         " --gtest_filter='GoldenRegression.*'";
  std::string line;
  std::vector<GoldenRow> rows;
  int64_t gn = 0, gl = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    if (gn == 0) {
      ASSERT_TRUE(static_cast<bool>(fields >> gn >> gl)) << "bad header";
      continue;
    }
    GoldenRow row;
    ASSERT_TRUE(static_cast<bool>(fields >> row.node >> row.step >>
                                  row.median >> row.q10 >> row.q90))
        << "bad golden line: " << line;
    rows.push_back(row);
  }
  ASSERT_EQ(gn, n);
  ASSERT_EQ(gl, l);
  ASSERT_EQ(rows.size(), static_cast<size_t>(n * l));

  const float kTol = 1e-4f;
  std::ostringstream diff;
  int64_t drifted = 0;
  for (const GoldenRow& row : rows) {
    struct {
      const char* name;
      float expected;
      float actual;
    } checks[] = {
        {"median", row.median, result.median.at({row.node, row.step})},
        {"q10", row.q10, result.Quantile(row.node, row.step, 0.1)},
        {"q90", row.q90, result.Quantile(row.node, row.step, 0.9)},
    };
    for (const auto& check : checks) {
      if (std::fabs(check.expected - check.actual) > kTol) {
        ++drifted;
        diff << "  (" << row.node << ", " << row.step << ") " << check.name
             << ": golden " << check.expected << " vs actual " << check.actual
             << " (|diff| = " << std::fabs(check.expected - check.actual)
             << ")\n";
      }
    }
  }
  EXPECT_EQ(drifted, 0)
      << drifted << " golden entr(ies) drifted beyond " << kTol << " in "
      << path << ":\n"
      << diff.str()
      << "If the sampler change is intentional, regenerate with:\n"
         "  PRISTI_REGEN_GOLDEN=1 ./sampler_equivalence_test "
         "--gtest_filter='GoldenRegression.*'";
}

// The exact configuration the golden files pin: 16-node preset window,
// 8 samples, T = 20, affine predictor. `options` selects the sampler.
ImputationResult RunGoldenConfig(ImputeOptions options) {
  const int64_t n = 16, l = 8;
  data::Sample sample = MakeWindow(n, l, 71);
  AffinePredictor model;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(20, 1e-4f, 0.2f);
  Rng rng(72);
  return ImputeWindow(&model, schedule, sample, options, rng);
}

TEST(GoldenRegression, BatchedSamplerMatchesCheckedInGolden) {
  const int64_t n = 16, l = 8;
  ImputationResult result = RunGoldenConfig({.num_samples = 8});
  if (!pristi::GetEnvOr("PRISTI_REGEN_GOLDEN", "").empty()) {
    WriteGoldenFile(
        PRISTI_GOLDEN_PATH,
        "sampler golden: 16-node window, 8 samples, 20 ancestral steps",
        result, n, l);
    GTEST_SKIP() << "golden regenerated at " << PRISTI_GOLDEN_PATH;
  }
  ExpectMatchesGolden(PRISTI_GOLDEN_PATH, result, n, l);
}

TEST(GoldenRegression, PlmsSamplerMatchesCheckedInGolden) {
  // Pins the pseudo-numerical path end to end: the Runge-Kutta warm-up,
  // the Adams-Bashforth history handling, and the shared step-subset
  // selection (10 of 20 kept steps).
  const int64_t n = 16, l = 8;
  ImputationResult result =
      RunGoldenConfig({.num_samples = 8, .sampler = SamplerKind::kPlms,
                       .num_inference_steps = 10});
  if (!pristi::GetEnvOr("PRISTI_REGEN_GOLDEN", "").empty()) {
    WriteGoldenFile(
        PRISTI_PLMS_GOLDEN_PATH,
        "PLMS golden: 16-node window, 8 samples, 10 of 20 kept steps",
        result, n, l);
    GTEST_SKIP() << "golden regenerated at " << PRISTI_PLMS_GOLDEN_PATH;
  }
  ExpectMatchesGolden(PRISTI_PLMS_GOLDEN_PATH, result, n, l);
}

// ---------------------------------------------------------------------------
// PLMS degeneracy property
// ---------------------------------------------------------------------------

// Noise predictor whose output depends only on the conditioning — constant
// across reverse steps and states. Along such a trajectory every entry of
// the PLMS history is identical, so the property below is algebraically
// exact and any drift exposes a weighting bug.
class ConditionalConstantPredictor : public ConditionalNoisePredictor {
 public:
  Variable PredictNoise(const Tensor& noisy, const DiffusionBatch& batch,
                        int64_t step) override {
    (void)noisy;
    (void)step;
    return autograd::Constant(t::MulScalar(batch.interpolated, 0.3f));
  }
  std::vector<Variable> Parameters() override { return {}; }
  void ZeroGrad() override {}
};

TEST(PlmsProperties, FullStepPlmsDegeneratesToDdimTrajectory) {
  // Degeneracy property: when the eps prediction is constant along the
  // trajectory, the Runge-Kutta combination ((e + 2e + 2e + e)/6 = e) and
  // every Adams-Bashforth order (weights sum to 1) collapse to the single
  // prediction, so PLMS at the full step count must reproduce the DDIM
  // trajectory exactly up to float rounding. The 1e-4 bound leaves ~three
  // decades of headroom over accumulated ulp noise; any weighting or
  // history-indexing bug blows straight past it.
  const int64_t n = 6, l = 8;
  data::Sample sample = MakeWindow(n, l, 121);
  ConditionalConstantPredictor model;
  NoiseSchedule schedule = NoiseSchedule::Quadratic(20, 1e-4f, 0.2f);
  ImputeOptions ddim{.num_samples = 4, .sampler = SamplerKind::kDdim,
                     .num_inference_steps = 0};
  ImputeOptions plms{.num_samples = 4, .sampler = SamplerKind::kPlms,
                     .num_inference_steps = 0};
  Rng ddim_rng(131), plms_rng(131);
  ImputationResult a = ImputeWindow(&model, schedule, sample, ddim, ddim_rng);
  ImputationResult b = ImputeWindow(&model, schedule, sample, plms, plms_rng);
  ExpectResultsClose(a, b, 1e-4f);
}

}  // namespace
}  // namespace pristi::diffusion
