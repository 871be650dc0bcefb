// Tests for the release-facing components: flag parsing, dataset CSV/binary
// I/O, the ST-MVL-lite baseline, and calibration metrics.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "baselines/simple.h"
#include "baselines/stmvl.h"
#include "common/flags.h"
#include "data/io.h"
#include "data/windows.h"
#include "metrics/calibration.h"
#include "metrics/metrics.h"
#include "test_tmpdir.h"

namespace pristi {
namespace {

namespace t = ::pristi::tensor;
using t::Tensor;


// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(FlagsTest, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3",   "--beta", "0.5",
                        "--gamma", "pos1",     "--delta"};
  Flags flags = Flags::Parse(7, argv);
  EXPECT_EQ(flags.GetInt("alpha", -1), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", -1), 0.5);
  EXPECT_EQ(flags.GetString("gamma"), "pos1");
  EXPECT_TRUE(flags.GetBool("delta"));
  EXPECT_FALSE(flags.Has("epsilon"));
}

TEST(FlagsTest, PositionalAndDefaults) {
  const char* argv[] = {"prog", "command", "--x=1", "file.bin"};
  Flags flags = Flags::Parse(4, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "command");
  EXPECT_EQ(flags.positional()[1], "file.bin");
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_FALSE(flags.GetBool("missing", false));
}

TEST(FlagsTest, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=no",
                        "--e=false"};
  Flags flags = Flags::Parse(6, argv);
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_TRUE(flags.GetBool("b"));
  EXPECT_TRUE(flags.GetBool("c"));
  EXPECT_FALSE(flags.GetBool("d"));
  EXPECT_FALSE(flags.GetBool("e"));
}

TEST(FlagsTest, UnqueriedKeysDetected) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  Flags flags = Flags::Parse(3, argv);
  flags.GetInt("used", 0);
  auto unqueried = flags.UnqueriedKeys();
  ASSERT_EQ(unqueried.size(), 1u);
  EXPECT_EQ(unqueried[0], "typo");
}

// ---------------------------------------------------------------------------
// Dataset I/O
// ---------------------------------------------------------------------------

data::SpatioTemporalDataset SmallDataset(uint64_t seed = 1) {
  data::SyntheticConfig config;
  config.num_nodes = 6;
  config.num_steps = 50;
  config.original_missing_rate = 0.2;
  Rng rng(seed);
  return data::GenerateSynthetic(config, rng);
}

TEST(DatasetIo, BinaryRoundTripLossless) {
  auto dataset = SmallDataset(2);
  pristi::testing::TestTempDir tmp;
  std::string path = tmp.File("ds.bin");
  ASSERT_TRUE(data::WriteBinaryDataset(dataset, path));
  data::SpatioTemporalDataset loaded;
  ASSERT_TRUE(data::ReadBinaryDataset(path, &loaded).ok());
  EXPECT_EQ(loaded.num_nodes, dataset.num_nodes);
  EXPECT_EQ(loaded.num_steps, dataset.num_steps);
  EXPECT_EQ(loaded.steps_per_day, dataset.steps_per_day);
  EXPECT_TRUE(t::AllClose(loaded.values, dataset.values, 0.0f, 0.0f));
  EXPECT_TRUE(
      t::AllClose(loaded.observed_mask, dataset.observed_mask, 0.0f, 0.0f));
  EXPECT_TRUE(t::AllClose(loaded.graph.coords, dataset.graph.coords, 0.0f,
                          0.0f));
}

TEST(DatasetIo, CsvRoundTripPreservesObservedValuesAndMask) {
  auto dataset = SmallDataset(3);
  pristi::testing::TestTempDir tmp;
  std::string values_path = tmp.File("vals.csv");
  std::string coords_path = tmp.File("coords.csv");
  ASSERT_TRUE(data::WriteCsvDataset(dataset, values_path, coords_path));
  Rng rng(4);
  auto loaded = data::ReadCsvDataset(values_path, coords_path, 24, rng);
  EXPECT_EQ(loaded.num_nodes, dataset.num_nodes);
  EXPECT_EQ(loaded.num_steps, dataset.num_steps);
  for (int64_t step = 0; step < dataset.num_steps; ++step) {
    for (int64_t node = 0; node < dataset.num_nodes; ++node) {
      EXPECT_FLOAT_EQ(loaded.observed_mask.at({step, node}),
                      dataset.observed_mask.at({step, node}));
      if (dataset.observed_mask.at({step, node}) > 0.5f) {
        EXPECT_NEAR(loaded.values.at({step, node}),
                    dataset.values.at({step, node}), 1e-3f);
      }
    }
  }
}

TEST(DatasetIo, MissingFileReturnsEmptyDataset) {
  Rng rng(5);
  auto loaded = data::ReadCsvDataset("/nonexistent/values.csv", "", 24, rng);
  EXPECT_EQ(loaded.num_steps, 0);
  data::SpatioTemporalDataset loaded_bin;
  Status status = data::ReadBinaryDataset("/nonexistent/data.bin",
                                          &loaded_bin);
  EXPECT_EQ(status.code(), ErrorCode::kIoError) << status.ToString();
  EXPECT_EQ(loaded_bin.num_steps, 0);
}

// ---------------------------------------------------------------------------
// Binary dataset rejections: each malformed file is a typed Status, read
// in-process, never a CHECK abort or an oversized allocation.
// ---------------------------------------------------------------------------

constexpr uint64_t kDatasetMagic = 0x5052495354493144ULL;  // "PRISTI1D"

template <typename T>
std::string Bytes(T value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::string TensorBytes(const Tensor& x) {
  std::ostringstream out;
  t::WriteTensor(out, x);
  return out.str();
}

// Magic, a two-byte name and steps_per_day: everything before the tensors.
std::string Header(uint64_t magic = kDatasetMagic) {
  return Bytes(magic) + Bytes<uint64_t>(2) + "ds" + Bytes<int64_t>(24);
}

// Values, mask and coords of a well-formed 4-step, 3-node dataset.
std::string Tensors(const Tensor& values = Tensor::Full({4, 3}, 1.5f),
                    const Tensor& mask = Tensor::Ones({4, 3}),
                    const Tensor& coords = Tensor::Ones({3, 2})) {
  return TensorBytes(values) + TensorBytes(mask) + TensorBytes(coords);
}

Status ReadBytes(const std::string& bytes) {
  pristi::testing::TestTempDir tmp;
  std::string path = tmp.File("ds.bin");
  std::ofstream(path, std::ios::binary) << bytes;
  data::SpatioTemporalDataset dataset;
  return data::ReadBinaryDataset(path, &dataset);
}

TEST(BinaryDatasetReject, WellFormedBytesLoad) {
  Status status = ReadBytes(Header() + Tensors());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(BinaryDatasetReject, BadMagic) {
  EXPECT_EQ(ReadBytes(Header(0x1234) + Tensors()).code(),
            ErrorCode::kBadMagic);
}

TEST(BinaryDatasetReject, NameOver64KiB) {
  std::string bytes = Bytes(kDatasetMagic) +
                      Bytes<uint64_t>((1u << 16) + 1) +
                      std::string((1u << 16) + 1, 'x') + Bytes<int64_t>(24) +
                      Tensors();
  EXPECT_EQ(ReadBytes(bytes).code(), ErrorCode::kBadRecord);
}

TEST(BinaryDatasetReject, TruncatedStream) {
  std::string bytes = Header() + Tensors();
  for (size_t cut : {size_t{4}, size_t{20}, Header().size() + 12,
                     bytes.size() - 1}) {
    EXPECT_EQ(ReadBytes(bytes.substr(0, cut)).code(), ErrorCode::kTruncated)
        << "cut at " << cut;
  }
}

TEST(BinaryDatasetReject, RankOutsideZeroToEight) {
  for (int64_t rank : {int64_t{-1}, int64_t{9}}) {
    EXPECT_EQ(ReadBytes(Header() + Bytes(rank) + Tensors()).code(),
              ErrorCode::kBadRecord)
        << "rank " << rank;
  }
}

TEST(BinaryDatasetReject, NegativeDim) {
  std::string bytes = Header() + Bytes<int64_t>(2) + Bytes<int64_t>(4) +
                      Bytes<int64_t>(-3) + Tensors();
  EXPECT_EQ(ReadBytes(bytes).code(), ErrorCode::kBadRecord);
}

TEST(BinaryDatasetReject, PayloadLargerThanFile) {
  // A 2^40-step header must be refused before anything is allocated, and a
  // dim product that overflows int64 must not wrap into a small size.
  const int64_t huge = int64_t{1} << 40;
  for (int64_t nodes : {int64_t{3}, huge}) {
    std::string bytes = Header() + Bytes<int64_t>(2) + Bytes(huge) +
                        Bytes(nodes) + Tensors();
    EXPECT_EQ(ReadBytes(bytes).code(), ErrorCode::kTruncated)
        << "nodes " << nodes;
  }
}

TEST(BinaryDatasetReject, ValuesNotRankTwo) {
  std::string bytes = Header() + Tensors(Tensor::Ones({12}),
                                         Tensor::Ones({12}));
  EXPECT_EQ(ReadBytes(bytes).code(), ErrorCode::kShapeMismatch);
}

TEST(BinaryDatasetReject, MaskShapeDiffersFromValues) {
  std::string bytes = Header() + Tensors(Tensor::Ones({4, 3}),
                                         Tensor::Ones({3, 4}));
  EXPECT_EQ(ReadBytes(bytes).code(), ErrorCode::kShapeMismatch);
}

TEST(BinaryDatasetReject, CoordsNotNodesByTwo) {
  for (const Tensor& coords :
       {Tensor::Ones({2, 2}), Tensor::Ones({3, 3}), Tensor::Ones({6})}) {
    std::string bytes = Header() + Tensors(Tensor::Ones({4, 3}),
                                           Tensor::Ones({4, 3}), coords);
    EXPECT_EQ(ReadBytes(bytes).code(), ErrorCode::kShapeMismatch);
  }
}

TEST(BinaryDatasetReject, NonFiniteObservedValue) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    Tensor values = Tensor::Ones({4, 3});
    values[7] = bad;
    Tensor mask = Tensor::Ones({4, 3});
    EXPECT_EQ(ReadBytes(Header() + Tensors(values, mask)).code(),
              ErrorCode::kNonFinite);
    // The same value at a missing position carries no information.
    mask[7] = 0.0f;
    EXPECT_TRUE(ReadBytes(Header() + Tensors(values, mask)).ok());
  }
}

// ---------------------------------------------------------------------------
// ST-MVL-lite
// ---------------------------------------------------------------------------

data::ImputationTask SmallTask(uint64_t seed) {
  data::SyntheticConfig config;
  config.num_nodes = 8;
  config.num_steps = 480;
  config.original_missing_rate = 0.05;
  Rng rng(seed);
  auto dataset = data::GenerateSynthetic(config, rng);
  return data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                        data::TaskOptions{.window_len = 24, .stride = 12},
                        rng);
}

TEST(StmvlTest, BeatsMeanOnSpatiotemporalData) {
  data::ImputationTask task = SmallTask(11);
  baselines::StmvlImputer stmvl;
  baselines::MeanImputer mean;
  Rng rng(12);
  stmvl.Fit(task, rng);
  mean.Fit(task, rng);
  auto mae = [&](baselines::Imputer* imputer) {
    Rng eval_rng(13);
    metrics::ErrorAccumulator acc;
    for (const data::Sample& sample : data::ExtractSamples(task, "test")) {
      acc.Add(imputer->Impute(sample, eval_rng), sample.values, sample.eval);
    }
    return acc.Mae();
  };
  EXPECT_LT(mae(&stmvl), mae(&mean));
}

TEST(StmvlTest, PreservesObservedEntries) {
  data::ImputationTask task = SmallTask(14);
  baselines::StmvlImputer stmvl;
  Rng rng(15);
  stmvl.Fit(task, rng);
  data::Sample sample = data::ExtractSamples(task, "test").front();
  Tensor out = stmvl.Impute(sample, rng);
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (sample.observed[i] > 0.5f) {
      EXPECT_FLOAT_EQ(out[i], sample.values[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

TEST(CalibrationTest, WellCalibratedGaussianCoversAtLevel) {
  // Truth ~ N(0,1), samples ~ N(0,1): 90% interval should cover ~90%.
  Rng rng(21);
  metrics::CalibrationAccumulator acc(0.9);
  for (int window = 0; window < 40; ++window) {
    Tensor truth = Tensor::Randn({10}, rng);
    std::vector<Tensor> samples;
    for (int k = 0; k < 60; ++k) samples.push_back(Tensor::Randn({10}, rng));
    acc.Add(samples, truth, Tensor::Ones({10}));
  }
  auto result = acc.Result();
  EXPECT_EQ(result.count, 400);
  EXPECT_NEAR(result.coverage, 0.9, 0.06);
  // Width of a central 90% normal interval ~ 2 * 1.645.
  EXPECT_NEAR(result.mean_width, 3.29, 0.5);
}

TEST(CalibrationTest, OverconfidentModelUndercovers) {
  // Samples with std 0.3 against N(0,1) truth: coverage far below 90%.
  Rng rng(22);
  metrics::CalibrationAccumulator acc(0.9);
  for (int window = 0; window < 40; ++window) {
    Tensor truth = Tensor::Randn({10}, rng);
    std::vector<Tensor> samples;
    for (int k = 0; k < 60; ++k) {
      Tensor s = Tensor::Randn({10}, rng);
      s.ScaleInPlace(0.3f);
      samples.push_back(s);
    }
    acc.Add(samples, truth, Tensor::Ones({10}));
  }
  EXPECT_LT(acc.Result().coverage, 0.75);
}

TEST(CalibrationTest, MaskRestrictsCount) {
  Rng rng(23);
  metrics::CalibrationAccumulator acc(0.5);
  Tensor truth = Tensor::Zeros({4});
  Tensor mask({4}, {1, 0, 0, 1});
  std::vector<Tensor> samples(10, Tensor::Zeros({4}));
  acc.Add(samples, truth, mask);
  EXPECT_EQ(acc.Result().count, 2);
  EXPECT_NEAR(acc.Result().coverage, 1.0, 1e-9);  // point mass on truth
}

}  // namespace
}  // namespace pristi
