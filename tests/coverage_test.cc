// Additional edge-case and property coverage across modules: exact-recovery
// cases for classic baselines, file-based serialization, interpolation
// bounds, schedule endpoints, and window boundary handling.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "test_tmpdir.h"
#include "autograd/ops.h"
#include "baselines/kalman.h"
#include "baselines/regression.h"
#include "common/table_printer.h"
#include "data/windows.h"
#include "diffusion/schedule.h"
#include "nn/layers.h"
#include "serialize/checkpoint.h"

namespace pristi {
namespace {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;
using t::Tensor;

// ---------------------------------------------------------------------------
// Baselines: exactly solvable cases
// ---------------------------------------------------------------------------

TEST(KalmanExact, LinearRampTrackedClosely) {
  // A noiseless ramp with interior missing: the smoother should track the
  // ramp within a small bias.
  std::vector<float> values, truth;
  std::vector<bool> observed;
  for (int i = 0; i < 20; ++i) {
    float v = 0.2f * i;
    truth.push_back(v);
    bool obs = (i % 4 != 2);
    observed.push_back(obs);
    values.push_back(obs ? v : 0.0f);
  }
  auto smoothed = baselines::KalmanImputer::SmoothSeries(values, observed,
                                                         0.5, 0.05);
  for (int i = 4; i < 18; ++i) {  // skip the diffuse-prior burn-in
    EXPECT_NEAR(smoothed[static_cast<size_t>(i)], truth[static_cast<size_t>(i)],
                0.25f)
        << "index " << i;
  }
}

TEST(VarExact, RecoversDeterministicAutoregression) {
  // Plant x_{t+1} = 0.8 * x_t per node (diagonal VAR) with negligible noise;
  // a one-step-ahead gap must be imputed near-exactly.
  const int64_t n = 4, t_steps = 300;
  data::SpatioTemporalDataset dataset;
  dataset.name = "var-exact";
  dataset.num_nodes = n;
  dataset.num_steps = t_steps;
  dataset.steps_per_day = 24;
  dataset.values = Tensor({t_steps, n});
  Rng rng(3);
  std::vector<double> x(n);
  for (int64_t node = 0; node < n; ++node) x[node] = rng.Normal(0, 2);
  for (int64_t step = 0; step < t_steps; ++step) {
    for (int64_t node = 0; node < n; ++node) {
      dataset.values.at({step, node}) = static_cast<float>(x[node]);
      x[node] = 0.8 * x[node] + rng.Normal(0, 0.01);
    }
  }
  dataset.observed_mask = Tensor::Ones({t_steps, n});
  dataset.graph = graph::BuildSensorGraph(n, rng);
  auto task = data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                             data::TaskOptions{.window_len = 12, .stride = 12},
                             rng);
  baselines::VarImputer var(/*ridge=*/1e-3);
  Rng fit_rng(4);
  var.Fit(task, fit_rng);
  // Take a test window, hide one mid-window entry, check the prediction.
  data::Sample sample = data::ExtractSamples(task, "test").front();
  sample.observed.Fill(1.0f);
  sample.observed.at({1, 6}) = 0.0f;
  Tensor out = var.Impute(sample, fit_rng);
  EXPECT_NEAR(out.at({1, 6}), sample.values.at({1, 6}), 0.25f);
}

// ---------------------------------------------------------------------------
// Interpolation bounds
// ---------------------------------------------------------------------------

TEST(LinearInterpolateProperty, GapValuesBoundedByEndpoints) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor values = Tensor::Randn({3, 20}, rng);
    Tensor mask = Tensor::Ones({3, 20});
    // Open a gap of random width in each row.
    for (int64_t node = 0; node < 3; ++node) {
      int64_t start = rng.UniformInt(1, 8);
      int64_t end = rng.UniformInt(start + 1, 18);
      for (int64_t step = start; step < end; ++step) {
        mask.at({node, step}) = 0.0f;
      }
    }
    Tensor filled = data::LinearInterpolate(values, mask);
    for (int64_t node = 0; node < 3; ++node) {
      for (int64_t step = 1; step < 19; ++step) {
        if (mask.at({node, step}) > 0.5f) continue;
        // Find bracketing observed values.
        int64_t left = step;
        while (left >= 0 && mask.at({node, left}) < 0.5f) --left;
        int64_t right = step;
        while (right < 20 && mask.at({node, right}) < 0.5f) ++right;
        if (left < 0 || right >= 20) continue;
        float lo = std::min(values.at({node, left}),
                            values.at({node, right}));
        float hi = std::max(values.at({node, left}),
                            values.at({node, right}));
        EXPECT_GE(filled.at({node, step}), lo - 1e-5f);
        EXPECT_LE(filled.at({node, step}), hi + 1e-5f);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

TEST(ScheduleEndpoints, LinearMatchesBounds) {
  auto schedule = diffusion::NoiseSchedule::Linear(40, 1e-4f, 0.3f);
  EXPECT_NEAR(schedule.beta(1), 1e-4f, 1e-8f);
  EXPECT_NEAR(schedule.beta(40), 0.3f, 1e-6f);
  // Midpoint of a linear schedule is the average of the endpoints (T even:
  // between steps 20 and 21).
  float mid = 0.5f * (schedule.beta(20) + schedule.beta(21));
  EXPECT_NEAR(mid, 0.5f * (1e-4f + 0.3f), 1e-3f);
}

// ---------------------------------------------------------------------------
// Window boundary
// ---------------------------------------------------------------------------

TEST(WindowBoundary, LastWindowTouchesSeriesEnd) {
  data::SyntheticConfig config;
  config.num_nodes = 4;
  config.num_steps = 200;
  Rng rng(6);
  auto dataset = data::GenerateSynthetic(config, rng);
  auto task = data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                             data::TaskOptions{.window_len = 16}, rng);
  data::Sample last =
      data::ExtractWindow(task, task.dataset.num_steps - task.window_len);
  EXPECT_EQ(last.start, 200 - 16);
  EXPECT_EQ(last.values.dim(1), 16);
}

// ---------------------------------------------------------------------------
// File-based persistence
// ---------------------------------------------------------------------------

TEST(FilePersistence, ModuleSaveLoadFileRoundTrip) {
  Rng rng1(7), rng2(8);
  nn::Mlp a(3, 4, 2, rng1);
  nn::Mlp b(3, 4, 2, rng2);
  pristi::testing::TestTempDir tmp;
  std::string path = tmp.File("ckpt.bin");
  ASSERT_TRUE(serialize::SaveModuleCheckpointFile(a, path).ok());
  ASSERT_TRUE(serialize::LoadModuleCheckpointFile(b, path).ok());
  Tensor probe = Tensor::Ones({2, 3});
  EXPECT_TRUE(t::AllClose(a.Forward(ag::Constant(probe)).value(),
                          b.Forward(ag::Constant(probe)).value(), 0.0f,
                          0.0f));
}

TEST(FilePersistence, LoadFromMissingFileFails) {
  Rng rng(9);
  nn::Mlp m(2, 3, 2, rng);
  Status status =
      serialize::LoadModuleCheckpointFile(m, "/nonexistent/path/ckpt.bin");
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
}

TEST(FilePersistence, TablePrinterWritesCsvFile) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  pristi::testing::TestTempDir tmp;
  std::string path = tmp.File("table.csv");
  ASSERT_TRUE(table.WriteCsv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

// ---------------------------------------------------------------------------
// Gated activation gradient
// ---------------------------------------------------------------------------

TEST(GatedActivationGrad, FiniteDifferenceCheck) {
  Rng rng(10);
  auto result = ag::CheckGradients(
      [](std::vector<ag::Variable>& v) {
        return ag::SumAll(ag::Square(nn::GatedActivation(v[0])));
      },
      {Tensor::Randn({3, 6}, rng)});
  EXPECT_TRUE(result.ok) << result.message;
}

// ---------------------------------------------------------------------------
// Normalizer edge cases
// ---------------------------------------------------------------------------

TEST(NormalizerEdge, UnobservedNodeKeepsIdentityTransform) {
  Tensor values({10, 2});
  Tensor mask = Tensor::Zeros({10, 2});
  for (int64_t step = 0; step < 10; ++step) {
    values.at({step, 0}) = static_cast<float>(5 + step);
    mask.at({step, 0}) = 1.0f;  // node 1 never observed
    values.at({step, 1}) = 42.0f;
  }
  auto norm = data::Normalizer::Fit(values, mask, 0, 10);
  EXPECT_NEAR(norm.mean(1), 0.0, 1e-12);
  EXPECT_NEAR(norm.stddev(1), 1.0, 1e-12);
  Tensor applied = norm.Apply(values, /*node_major=*/false);
  EXPECT_FLOAT_EQ(applied.at({0, 1}), 42.0f);  // identity on node 1
}

}  // namespace
}  // namespace pristi
