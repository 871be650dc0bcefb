// Tests for the streaming fused attention kernel
// (src/tensor/kernels/attention.cc) and its ag::FusedAttention wrapper:
// fused-vs-reference tolerance parity at paper-full shapes, module-level
// parity through MultiHeadAttention (plain and virtual-node paths), a
// trained model's imputation through both paths within 0.05 in data units,
// bitwise determinism of the fused path across thread counts and repeated
// runs, the dispatched SIMD forward and backward against the scalar oracles
// bitwise, kernel-counter accounting, and seeded forward and backward
// goldens.
//
// Regenerating the goldens after an INTENTIONAL kernel change:
//   PRISTI_REGEN_GOLDEN=1 ./build/tests/attention_fused_test
//     --gtest_filter='FusedAttentionGolden.*'
// then commit the rewritten tests/golden/attention_fused_seeded.txt and
// tests/golden/attention_fused_backward_seeded.txt.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "eval/harness.h"
#include "nn/attention.h"
#include "pristi/pristi_model.h"
#include "tensor/kernels/attention.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"

namespace pristi::tensor {
namespace {

namespace ag = ::pristi::autograd;
namespace kn = kernels;
using ag::Variable;

#ifndef PRISTI_ATTN_GOLDEN_PATH
#define PRISTI_ATTN_GOLDEN_PATH "tests/golden/attention_fused_seeded.txt"
#endif
#ifndef PRISTI_ATTN_BWD_GOLDEN_PATH
#define PRISTI_ATTN_BWD_GOLDEN_PATH \
  "tests/golden/attention_fused_backward_seeded.txt"
#endif

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// The reference chain exactly as nn/attention.cc issues it with the fused
// kernel switched off: scaled NT scores -> softmax -> context GEMM.
Tensor ReferenceAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          float scale) {
  Variable qv(q), kv(k), vv(v);
  Variable weights =
      ag::SoftmaxLastDim(ag::BatchedMatMulNTScaled(qv, kv, scale));
  return ag::BatchedMatMul(weights, vv).value();
}

Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      float scale) {
  return ag::FusedAttention(Variable(q), Variable(k), Variable(v), scale)
      .value();
}

// ---------------------------------------------------------------------------
// Fused vs reference: tolerance parity (the 1e-5 forward contract)
// ---------------------------------------------------------------------------

// Paper-full spatial attention: every head/window attends over all 325 AQI
// sensors at head_dim 8. batch = B*h for B = 2 windows of 8 heads.
TEST(FusedVsReference, PaperSpatialShape325Nodes) {
  Rng rng(101);
  const float scale = 1.0f / std::sqrt(8.0f);
  Tensor q = Tensor::Randn({16, 325, 8}, rng);
  Tensor k = Tensor::Randn({16, 325, 8}, rng);
  Tensor v = Tensor::Randn({16, 325, 8}, rng);
  EXPECT_LE(MaxAbsDiff(FusedAttention(q, k, v, scale),
                       ReferenceAttention(q, k, v, scale)),
            1e-5f);
}

// Paper-full temporal attention: batch = B*N*h = 1*325*8 rows of the L=36
// window, head_dim 8.
TEST(FusedVsReference, PaperTemporalShapeL36) {
  Rng rng(102);
  const float scale = 1.0f / std::sqrt(8.0f);
  Tensor q = Tensor::Randn({2600, 36, 8}, rng);
  Tensor k = Tensor::Randn({2600, 36, 8}, rng);
  Tensor v = Tensor::Randn({2600, 36, 8}, rng);
  EXPECT_LE(MaxAbsDiff(FusedAttention(q, k, v, scale),
                       ReferenceAttention(q, k, v, scale)),
            1e-5f);
}

// Virtual-node geometry: 325 query positions against 8 compressed kv rows
// (s_k << s_q, one partial kv block).
TEST(FusedVsReference, VirtualNodeGeometry) {
  Rng rng(103);
  const float scale = 1.0f / std::sqrt(8.0f);
  Tensor q = Tensor::Randn({16, 325, 8}, rng);
  Tensor k = Tensor::Randn({16, 8, 8}, rng);
  Tensor v = Tensor::Randn({16, 8, 8}, rng);
  EXPECT_LE(MaxAbsDiff(FusedAttention(q, k, v, scale),
                       ReferenceAttention(q, k, v, scale)),
            1e-5f);
}

// Module-level A/B through MultiHeadAttention::Forward, which is what the
// SetFusedAttentionEnabled seam actually routes: plain self-attention and
// the virtual-node pk_/pv_ path, forward outputs within 1e-5.
TEST(FusedVsReference, MultiHeadAttentionModuleParity) {
  Rng rng(104);
  nn::MultiHeadAttention plain(64, 8, rng);
  nn::MultiHeadAttention virt(64, 8, rng, /*virtual_nodes=*/8,
                              /*seq_len=*/57);
  Tensor x = Tensor::Randn({2, 57, 64}, rng);
  for (nn::MultiHeadAttention* attn : {&plain, &virt}) {
    bool prev = kn::SetFusedAttentionEnabled(true);
    Tensor fused = attn->Forward(Variable(x)).value();
    kn::SetFusedAttentionEnabled(false);
    Tensor reference = attn->Forward(Variable(x)).value();
    kn::SetFusedAttentionEnabled(prev);
    EXPECT_LE(MaxAbsDiff(fused, reference), 1e-5f)
        << (attn == &virt ? "virtual-node" : "plain") << " module path";
  }
}

// The `pristi_cli` task and model at --preset=aqi --nodes=12
// --gen-steps=120 --window=8 --stride=8 --pattern=point (default flags
// otherwise), drawn from `rng` in the CLI's order: dataset, masks, weights.
data::ImputationTask CliTask(Rng& rng) {
  auto dataset = data::GenerateSynthetic(data::Aqi36LikeConfig(12, 120), rng);
  return data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                        data::TaskOptions{.window_len = 8, .stride = 8}, rng);
}

std::shared_ptr<core::PristiModel> CliModel(const data::ImputationTask& task,
                                            Rng& rng) {
  core::PristiConfig config;
  config.num_nodes = task.dataset.num_nodes;
  config.window_len = task.window_len;
  config.channels = 16;
  config.heads = 4;
  config.layers = 2;
  config.virtual_nodes = 6;
  config.diffusion_emb_dim = 32;
  config.temporal_emb_dim = 32;
  config.node_emb_dim = 16;
  config.adaptive_rank = 6;
  return std::make_shared<core::PristiModel>(
      config, task.dataset.graph.adjacency, rng);
}

// A trained PriSTI imputes the same task twice, once fused and once through
// the reference chain: `pristi_cli train --epochs=2 --batch=4
// --steps-diffusion=8` with seed 1, then `impute --samples=4 --seed=5`.
// Through the whole reverse chain and the de-normalization the two stay
// within 0.05 in data units; a wrong attention output drifts by orders of
// magnitude more. The two must also differ somewhere, or the seam has
// stopped routing.
TEST(FusedVsReference, TrainedModelImputationParity) {
  eval::DiffusionRunOptions options;
  options.diffusion_steps = 8;
  options.train.epochs = 2;
  options.train.batch_size = 4;
  options.train.lr = 2e-3f;
  options.train.high_t_bias = 0.5;
  options.train.mask_strategy = data::MaskStrategy::kPoint;
  options.impute.num_samples = 4;
  options.impute.sampler = diffusion::SamplerKind::kDdim;
  options.impute.num_inference_steps = 10;
  diffusion::NoiseSchedule schedule = diffusion::NoiseSchedule::Quadratic(
      options.diffusion_steps, options.beta_1, options.beta_end);

  Rng train_rng(1);
  data::ImputationTask train_task = CliTask(train_rng);
  auto trained = CliModel(train_task, train_rng);
  diffusion::TrainDiffusionModel(trained.get(), schedule, train_task,
                                 options.train, train_rng);

  Rng impute_rng(5);
  data::ImputationTask task = CliTask(impute_rng);
  auto model = CliModel(task, impute_rng);
  auto source = trained->NamedParameters();
  auto dest = model->NamedParameters();
  ASSERT_EQ(source.size(), dest.size());
  for (size_t i = 0; i < dest.size(); ++i) {
    dest[i].second.mutable_value() = source[i].second.value();
  }
  eval::DiffusionImputerAdapter adapter("PriSTI", model, options);
  auto impute = [&](bool fused) {
    bool prev = kn::SetFusedAttentionEnabled(fused);
    Rng rng = impute_rng;  // both runs draw the same stream
    Tensor completed = eval::ImputeSeries(&adapter, task, rng);
    kn::SetFusedAttentionEnabled(prev);
    return completed;
  };
  Tensor fused = impute(true);
  Tensor reference = impute(false);

  ASSERT_TRUE(ShapesEqual(fused.shape(), reference.shape()));
  int64_t differing = 0;
  float worst = 0.0f;
  for (int64_t i = 0; i < fused.numel(); ++i) {
    if (task.model_observed_mask[i] > 0.5f) {
      // Present cells are copied through from the data on both paths.
      ASSERT_EQ(fused[i], task.dataset.values[i]) << "present cell " << i;
      ASSERT_EQ(reference[i], task.dataset.values[i]) << "present cell " << i;
      continue;
    }
    ASSERT_TRUE(std::isfinite(fused[i]) && std::isfinite(reference[i]))
        << "missing cell " << i << ": " << fused[i] << " vs " << reference[i];
    float diff = std::abs(fused[i] - reference[i]);
    worst = std::max(worst, diff);
    if (diff > 0.0f) ++differing;
  }
  EXPECT_LE(worst, 0.05f);
  EXPECT_GT(differing, 0) << "fused and reference imputations are bitwise "
                             "equal: the seam no longer routes";
}

// ---------------------------------------------------------------------------
// Fused-path determinism: bitwise across thread counts and runs
// ---------------------------------------------------------------------------

// One fused forward+backward round at a ragged shape (s_k = 57 spans full
// kv blocks plus a tail), returning every array the kernel writes.
struct FusedRound {
  Tensor out, lse, dq, dk, dv;
};

FusedRound RunFusedRound(const Tensor& q, const Tensor& k, const Tensor& v,
                         const Tensor& grad_out, float scale) {
  const int64_t batch = q.dim(0), s_q = q.dim(1), s_k = k.dim(1),
                dh = q.dim(2);
  FusedRound r{Tensor(q.shape()), Tensor(Shape{batch, s_q}),
               Tensor(q.shape()), Tensor(k.shape()), Tensor(v.shape())};
  kn::FusedAttentionForward(batch, s_q, s_k, dh, scale, q.data(), k.data(),
                            v.data(), r.out.data(), r.lse.data(), &k);
  kn::FusedAttentionBackward(batch, s_q, s_k, dh, scale, q.data(), k.data(),
                             v.data(), r.out.data(), r.lse.data(),
                             grad_out.data(), r.dq.data(), r.dk.data(),
                             r.dv.data(), &k);
  return r;
}

void ExpectBytesEqual(const Tensor& x, const Tensor& y,
                      const std::string& what) {
  ASSERT_EQ(x.numel(), y.numel());
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        sizeof(float) * static_cast<size_t>(x.numel())),
            0)
      << what << " bytes differ";
}

void ExpectRoundsBitEqual(const FusedRound& a, const FusedRound& b,
                          const std::string& what) {
  ExpectBytesEqual(a.out, b.out, what + ": out");
  ExpectBytesEqual(a.lse, b.lse, what + ": lse");
  ExpectBytesEqual(a.dq, b.dq, what + ": dq");
  ExpectBytesEqual(a.dk, b.dk, what + ": dk");
  ExpectBytesEqual(a.dv, b.dv, what + ": dv");
}

// dh=8 at the model shape; dh=4 with s_q % 8 != 0 (a partial row group per
// item) and rows*4*s_k*dh >= 4*kMinFlopsPerChunk, so the row-group
// ParallelFor really splits at 4 threads; and dh=4 at the spatial
// virtual-node geometry (s_k = 8, one half block), large enough that both
// the forward and the item-parallel backward split at 4 threads.
TEST(FusedDeterminism, BitIdenticalAcrossThreadCountsAndRuns) {
  struct Case {
    int64_t batch, s_q, s_k, dh;
  };
  for (const Case& c :
       {Case{6, 41, 57, 8}, Case{30, 41, 57, 4}, Case{40, 207, 8, 4}}) {
    Rng rng(105);
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.dh));
    Tensor q = Tensor::Randn({c.batch, c.s_q, c.dh}, rng);
    Tensor k = Tensor::Randn({c.batch, c.s_k, c.dh}, rng);
    Tensor v = Tensor::Randn({c.batch, c.s_k, c.dh}, rng);
    Tensor g = Tensor::Randn({c.batch, c.s_q, c.dh}, rng);
    const std::string tag = "dh=" + std::to_string(c.dh) + ", ";

    int64_t prev_threads = ParallelThreadCount();
    SetParallelThreadCount(1);
    FusedRound base = RunFusedRound(q, k, v, g, scale);
    FusedRound again = RunFusedRound(q, k, v, g, scale);
    ExpectRoundsBitEqual(base, again, tag + "1 thread, repeated run");
    for (int64_t threads : {2, 4}) {
      SetParallelThreadCount(threads);
      FusedRound r = RunFusedRound(q, k, v, g, scale);
      ExpectRoundsBitEqual(base, r,
                           tag + std::to_string(threads) + " threads vs 1");
    }
    SetParallelThreadCount(prev_threads);
  }
}

// ---------------------------------------------------------------------------
// SIMD dispatch vs the scalar oracle: bitwise
// ---------------------------------------------------------------------------

// Runs the dispatched forward and FusedAttentionForwardScalar on the same
// inputs and requires byte-equal out and lse.
void ExpectDispatchMatchesOracle(const Tensor& q, const Tensor& k,
                                 const Tensor& v, const std::string& what) {
  const int64_t batch = q.dim(0), s_q = q.dim(1), s_k = k.dim(1),
                dh = q.dim(2);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor out(q.shape()), lse(Shape{batch, s_q});
  Tensor out_ref(q.shape()), lse_ref(Shape{batch, s_q});
  kn::FusedAttentionForward(batch, s_q, s_k, dh, scale, q.data(), k.data(),
                            v.data(), out.data(), lse.data());
  kn::FusedAttentionForwardScalar(batch, s_q, s_k, dh, scale, q.data(),
                                  k.data(), v.data(), out_ref.data(),
                                  lse_ref.data());
  ExpectBytesEqual(out, out_ref, what + ": out");
  ExpectBytesEqual(lse, lse_ref, what + ": lse");
}

// Partial and full row groups (s_q around multiples of 8, the 325-node
// spatial shape) against partial and full kv blocks (s_k around 16), with
// q at unit scale and at x30 so the softmax saturates and the exp argument
// spans its whole range.
TEST(FusedDispatch, MatchesScalarOracleBitwise) {
  Rng rng(107);
  for (int64_t dh : {4, 8}) {
    for (int64_t s_q : {1, 7, 8, 9, 41, 325}) {
      for (int64_t s_k : {1, 8, 15, 16, 17, 24, 57}) {
        for (float q_mul : {1.0f, 30.0f}) {
          Tensor q = Tensor::Randn({3, s_q, dh}, rng);
          for (int64_t i = 0; i < q.numel(); ++i) q[i] *= q_mul;
          Tensor k = Tensor::Randn({3, s_k, dh}, rng);
          Tensor v = Tensor::Randn({3, s_k, dh}, rng);
          ExpectDispatchMatchesOracle(
              q, k, v,
              "dh=" + std::to_string(dh) + " s_q=" + std::to_string(s_q) +
                  " s_k=" + std::to_string(s_k) +
                  " q*" + std::to_string(static_cast<int>(q_mul)));
        }
      }
    }
  }
}

// The row max sits in a later kv block for even rows and in the first block
// for odd rows, with a score gap far beyond the exp clamp: within one row
// group some lanes rescale (and the clamped exp(m_old - m_new) fires) while
// their neighbours keep their max.
TEST(FusedDispatch, LaterBlockMaxRescaleAndClampMatchOracle) {
  Rng rng(108);
  const int64_t batch = 2, s_q = 13, s_k = 40;
  for (int64_t dh : {4, 8}) {
    Tensor q = Tensor::Randn({batch, s_q, dh}, rng);
    Tensor k = Tensor::Randn({batch, s_k, dh}, rng);
    Tensor v = Tensor::Randn({batch, s_k, dh}, rng);
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t i = 0; i < s_q; ++i) {
        float sign = i % 2 == 0 ? 1.0f : -1.0f;
        float* q_row = q.data() + (b * s_q + i) * dh;
        for (int64_t d = 0; d < dh; ++d) q_row[d] = sign * (30.0f + q_row[d]);
      }
      for (int64_t j = 0; j < s_k; ++j) {
        float shift = j < 16 ? -2.0f : 2.0f;
        float* k_row = k.data() + (b * s_k + j) * dh;
        for (int64_t d = 0; d < dh; ++d) k_row[d] = shift + 0.1f * k_row[d];
      }
    }
    ExpectDispatchMatchesOracle(q, k, v,
                                "later-block max, dh=" + std::to_string(dh));
  }
}

// The dispatched backward (the column-lane kernel at dh 4 and 8 on AVX2
// hosts) against FusedAttentionBackwardScalar: byte-equal dq, dk and dv.
// s_k covers a single column, partial and full half blocks, a full block,
// and tails both within (24, 37) and past (17) a half block; s_q covers the
// one-row item and the 207-node spatial shape. q at x30 saturates the
// softmax, so the exp clamp fires.
TEST(FusedDispatch, BackwardMatchesScalarOracleBitwise) {
  Rng rng(109);
  for (int64_t dh : {4, 8}) {
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    for (int64_t s_q : {1, 7, 8, 9, 41, 207}) {
      for (int64_t s_k : {1, 7, 8, 9, 16, 17, 24, 37}) {
        for (float q_mul : {1.0f, 30.0f}) {
          Tensor q = Tensor::Randn({3, s_q, dh}, rng);
          for (int64_t i = 0; i < q.numel(); ++i) q[i] *= q_mul;
          Tensor k = Tensor::Randn({3, s_k, dh}, rng);
          Tensor v = Tensor::Randn({3, s_k, dh}, rng);
          Tensor g = Tensor::Randn({3, s_q, dh}, rng);
          FusedRound r = RunFusedRound(q, k, v, g, scale);
          Tensor dq(q.shape()), dk(k.shape()), dv(v.shape());
          kn::FusedAttentionBackwardScalar(
              3, s_q, s_k, dh, scale, q.data(), k.data(), v.data(),
              r.out.data(), r.lse.data(), g.data(), dq.data(), dk.data(),
              dv.data());
          const std::string what =
              "dh=" + std::to_string(dh) + " s_q=" + std::to_string(s_q) +
              " s_k=" + std::to_string(s_k) + " q*" +
              std::to_string(static_cast<int>(q_mul));
          ExpectBytesEqual(r.dq, dq, what + ": dq");
          ExpectBytesEqual(r.dk, dk, what + ": dk");
          ExpectBytesEqual(r.dv, dv, what + ": dv");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel counters
// ---------------------------------------------------------------------------

// Counts are per row at dh=4 and dh=8 alike, whatever rows per kernel call
// the dispatch runs (s_q = 10 leaves a partial row group per item).
TEST(FusedCounters, RowsBlocksAndAvoidedBytesAdvance) {
  for (int64_t dh : {4, 8}) {
    Rng rng(106);
    const int64_t batch = 3, s_q = 10, s_k = 37;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Tensor q = Tensor::Randn({batch, s_q, dh}, rng);
    Tensor k = Tensor::Randn({batch, s_k, dh}, rng);
    Tensor v = Tensor::Randn({batch, s_k, dh}, rng);
    Tensor out(q.shape()), lse(Shape{batch, s_q});

    kn::KernelStats before = kn::GetKernelStats();
    kn::FusedAttentionForward(batch, s_q, s_k, dh, scale, q.data(), k.data(),
                              v.data(), out.data(), lse.data(), &k);
    kn::KernelStats after = kn::GetKernelStats();

    const uint64_t rows = static_cast<uint64_t>(batch * s_q);
    const uint64_t panels = static_cast<uint64_t>((s_k + 15) / 16);
    EXPECT_EQ(after.fused_attn_rows - before.fused_attn_rows, rows)
        << "dh=" << dh;
    EXPECT_EQ(after.fused_attn_kv_blocks - before.fused_attn_kv_blocks,
              rows * panels)
        << "dh=" << dh;
    // Scores written once and softmax rewritten once on the reference
    // chain: 2 * batch * s_q * s_k floats never touched memory.
    EXPECT_EQ(
        after.fused_attn_bytes_avoided - before.fused_attn_bytes_avoided,
        2u * rows * static_cast<uint64_t>(s_k) * sizeof(float))
        << "dh=" << dh;
  }
}

// ---------------------------------------------------------------------------
// Seeded goldens
// ---------------------------------------------------------------------------

// One named array of a golden file.
struct GoldenSection {
  std::string name;
  const Tensor* values;
};

// Golden file format: '#' comment lines, one header line with the element
// count of each section, then every value on its own line at 9 significant
// digits — which round-trips a float exactly, so the comparison is bitwise
// despite the text encoding. Under PRISTI_REGEN_GOLDEN=1 the file is
// rewritten from `sections` and the test is skipped.
void CheckGolden(const std::string& path, const std::string& title,
                 const std::vector<GoldenSection>& sections) {
  if (!pristi::GetEnvOr("PRISTI_REGEN_GOLDEN", "").empty()) {
    std::ofstream golden(path);
    ASSERT_TRUE(golden.good()) << "cannot write golden " << path;
    golden << "# " << title << "\n"
           << "# regen: PRISTI_REGEN_GOLDEN=1 ./attention_fused_test "
              "--gtest_filter='FusedAttentionGolden.*'\n";
    for (size_t s = 0; s < sections.size(); ++s) {
      golden << (s == 0 ? "" : " ") << sections[s].values->numel();
    }
    golden << "\n";
    golden.precision(9);
    golden << std::scientific;
    for (const GoldenSection& section : sections) {
      const Tensor& t = *section.values;
      for (int64_t i = 0; i < t.numel(); ++i) golden << t[i] << "\n";
    }
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream golden(path);
  ASSERT_TRUE(golden.good())
      << "missing golden " << path
      << "; regenerate with PRISTI_REGEN_GOLDEN=1 ./attention_fused_test";
  std::string line;
  std::vector<int64_t> counts;
  std::vector<float> expected;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    if (counts.empty()) {
      int64_t count = 0;
      while (fields >> count) counts.push_back(count);
      ASSERT_EQ(counts.size(), sections.size()) << "bad golden header";
      continue;
    }
    double value = 0.0;
    ASSERT_TRUE(static_cast<bool>(fields >> value)) << "bad golden line";
    expected.push_back(static_cast<float>(value));
  }
  ASSERT_EQ(counts.size(), sections.size()) << "golden has no header";
  size_t at = 0;
  for (size_t s = 0; s < sections.size(); ++s) {
    const Tensor& t = *sections[s].values;
    ASSERT_EQ(counts[s], t.numel()) << sections[s].name;
    ASSERT_LE(at + static_cast<size_t>(t.numel()), expected.size())
        << "golden truncated in " << sections[s].name;
    for (int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_EQ(expected[at++], t[i]) << sections[s].name << "[" << i << "]";
    }
  }
  EXPECT_EQ(at, expected.size()) << "trailing golden values";
}

// Freezes the fused kernel's exact bits on a seeded problem: the fused path
// promises bitwise self-consistency, so any rounding-order change in the
// kernel must show up here (and be an intentional regen).
TEST(FusedAttentionGolden, SeededForwardMatchesGolden) {
  Rng rng(20260808);
  const int64_t batch = 2, s_q = 9, s_k = 21, dh = 4;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor q = Tensor::Randn({batch, s_q, dh}, rng);
  Tensor k = Tensor::Randn({batch, s_k, dh}, rng);
  Tensor v = Tensor::Randn({batch, s_k, dh}, rng);
  Tensor out(q.shape()), lse(Shape{batch, s_q});
  kn::FusedAttentionForward(batch, s_q, s_k, dh, scale, q.data(), k.data(),
                            v.data(), out.data(), lse.data(), &k);
  CheckGolden(PRISTI_ATTN_GOLDEN_PATH,
              "seeded fused-attention forward (out rows then lse rows)",
              {{"out", &out}, {"lse", &lse}});
}

// The backward's bits, which neither the forward golden nor the training
// goldens (those pin the reference chain) reach: dq/dk/dv at head_dim 4 and
// 8, each with a tail kv block — 13 columns at dh=4 (past a half block),
// 5 at dh=8 (within one).
TEST(FusedAttentionGolden, SeededBackwardMatchesGolden) {
  struct Case {
    int64_t dh, s_k;
  };
  std::vector<FusedRound> rounds;
  for (const Case& c : {Case{4, 29}, Case{8, 21}}) {
    Rng rng(20261017 + static_cast<uint64_t>(c.dh));
    const int64_t batch = 2, s_q = 9;
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.dh));
    Tensor q = Tensor::Randn({batch, s_q, c.dh}, rng);
    Tensor k = Tensor::Randn({batch, c.s_k, c.dh}, rng);
    Tensor v = Tensor::Randn({batch, c.s_k, c.dh}, rng);
    Tensor g = Tensor::Randn({batch, s_q, c.dh}, rng);
    rounds.push_back(RunFusedRound(q, k, v, g, scale));
  }
  CheckGolden(PRISTI_ATTN_BWD_GOLDEN_PATH,
              "seeded fused-attention backward (dq, dk, dv at dh=4, then "
              "dh=8)",
              {{"dq4", &rounds[0].dq},
               {"dk4", &rounds[0].dk},
               {"dv4", &rounds[0].dv},
               {"dq8", &rounds[1].dq},
               {"dk8", &rounds[1].dk},
               {"dv8", &rounds[1].dv}});
}

}  // namespace
}  // namespace pristi::tensor
