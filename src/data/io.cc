#include "data/io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"

namespace pristi::data {

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  // Trailing comma -> trailing empty cell.
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

}  // namespace

bool WriteCsvDataset(const SpatioTemporalDataset& dataset,
                     const std::string& values_path,
                     const std::string& coords_path) {
  std::ofstream values_file(values_path);
  if (!values_file) return false;
  for (int64_t step = 0; step < dataset.num_steps; ++step) {
    for (int64_t node = 0; node < dataset.num_nodes; ++node) {
      if (node > 0) values_file << ",";
      if (dataset.observed_mask.at({step, node}) > 0.5f) {
        values_file << dataset.values.at({step, node});
      }
      // missing -> empty cell
    }
    values_file << "\n";
  }
  if (!values_file) return false;
  if (!coords_path.empty()) {
    std::ofstream coords_file(coords_path);
    if (!coords_file) return false;
    for (int64_t node = 0; node < dataset.num_nodes; ++node) {
      coords_file << dataset.graph.coords.at({node, 0}) << ","
                  << dataset.graph.coords.at({node, 1}) << "\n";
    }
    if (!coords_file) return false;
  }
  return true;
}

SpatioTemporalDataset ReadCsvDataset(const std::string& values_path,
                                     const std::string& coords_path,
                                     int64_t steps_per_day, Rng& rng) {
  SpatioTemporalDataset dataset;
  dataset.name = values_path;
  dataset.steps_per_day = steps_per_day;
  std::ifstream values_file(values_path);
  if (!values_file) {
    PRISTI_LOG_WARNING << "cannot open " << values_path;
    return dataset;
  }
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(values_file, line)) {
    if (line.empty()) continue;
    rows.push_back(SplitCsvLine(line));
  }
  PRISTI_CHECK(!rows.empty()) << "empty CSV " << values_path;
  int64_t t_steps = static_cast<int64_t>(rows.size());
  int64_t n = static_cast<int64_t>(rows[0].size());
  dataset.num_steps = t_steps;
  dataset.num_nodes = n;
  dataset.values = Tensor({t_steps, n});
  dataset.observed_mask = Tensor({t_steps, n});
  for (int64_t step = 0; step < t_steps; ++step) {
    PRISTI_CHECK_EQ(static_cast<int64_t>(rows[static_cast<size_t>(step)].size()), n)
        << "ragged CSV row " << step;
    for (int64_t node = 0; node < n; ++node) {
      const std::string& cell =
          rows[static_cast<size_t>(step)][static_cast<size_t>(node)];
      if (cell.empty()) continue;  // missing
      dataset.values.at({step, node}) = std::stof(cell);
      dataset.observed_mask.at({step, node}) = 1.0f;
    }
  }
  // Graph: from the coordinates file if given, else synthetic placement.
  if (!coords_path.empty()) {
    std::ifstream coords_file(coords_path);
    PRISTI_CHECK(static_cast<bool>(coords_file)) << "cannot open " << coords_path;
    Tensor coords({n, 2});
    int64_t node = 0;
    while (std::getline(coords_file, line) && node < n) {
      auto cells = SplitCsvLine(line);
      PRISTI_CHECK_GE(cells.size(), 2u) << "bad coords row " << node;
      coords.at({node, 0}) = std::stof(cells[0]);
      coords.at({node, 1}) = std::stof(cells[1]);
      ++node;
    }
    PRISTI_CHECK_EQ(node, n) << "coords file has too few rows";
    dataset.graph.num_nodes = n;
    dataset.graph.coords = coords;
    dataset.graph.distances = graph::PairwiseDistances(coords);
    dataset.graph.adjacency =
        graph::GaussianKernelAdjacency(dataset.graph.distances);
  } else {
    dataset.graph = graph::BuildSensorGraph(n, rng);
  }
  return dataset;
}

namespace {

constexpr uint64_t kBinaryMagic = 0x5052495354493144ULL;  // "PRISTI1D"

}  // namespace

bool WriteBinaryDataset(const SpatioTemporalDataset& dataset,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(&kBinaryMagic),
            sizeof(kBinaryMagic));
  uint64_t name_len = dataset.name.size();
  out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  out.write(dataset.name.data(), static_cast<std::streamsize>(name_len));
  out.write(reinterpret_cast<const char*>(&dataset.steps_per_day),
            sizeof(dataset.steps_per_day));
  tensor::WriteTensor(out, dataset.values);
  tensor::WriteTensor(out, dataset.observed_mask);
  tensor::WriteTensor(out, dataset.graph.coords);
  return static_cast<bool>(out);
}

Status ReadBinaryDataset(const std::string& path,
                         SpatioTemporalDataset* dataset) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error(ErrorCode::kIoError, "cannot open " + path);
  auto truncated = [&path](const char* field) {
    return Status::Error(ErrorCode::kTruncated,
                         path + ": truncated " + field);
  };
  uint64_t magic = 0;
  if (!in.read(reinterpret_cast<char*>(&magic), sizeof(magic))) {
    return truncated("magic");
  }
  if (magic != kBinaryMagic) {
    return Status::Error(ErrorCode::kBadMagic,
                         path + ": not a PriSTI dataset file");
  }
  uint64_t name_len = 0;
  if (!in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len))) {
    return truncated("name length");
  }
  if (name_len > (1u << 16)) {
    return Status::Error(ErrorCode::kBadRecord,
                         path + ": name length " + std::to_string(name_len) +
                             " over 64 KiB");
  }
  SpatioTemporalDataset loaded;
  loaded.name.resize(name_len);
  if (!in.read(loaded.name.data(), static_cast<std::streamsize>(name_len))) {
    return truncated("name");
  }
  if (!in.read(reinterpret_cast<char*>(&loaded.steps_per_day),
               sizeof(loaded.steps_per_day))) {
    return truncated("steps_per_day");
  }
  for (Tensor* t :
       {&loaded.values, &loaded.observed_mask, &loaded.graph.coords}) {
    Status status = tensor::ReadTensor(in, t);
    if (!status.ok()) {
      return Status::Error(status.code(), path + ": " + status.message());
    }
  }
  const Tensor& values = loaded.values;
  const Tensor& mask = loaded.observed_mask;
  const Tensor& coords = loaded.graph.coords;
  if (values.ndim() != 2 || mask.shape() != values.shape()) {
    return Status::Error(ErrorCode::kShapeMismatch,
                         path + ": values and mask must be equal-shaped "
                                "(T, N) tensors");
  }
  int64_t n = values.dim(1);
  if (coords.shape() != tensor::Shape{n, 2}) {
    return Status::Error(ErrorCode::kShapeMismatch,
                         path + ": coords must be (N, 2) with N = " +
                             std::to_string(n));
  }
  for (int64_t i = 0; i < values.numel(); ++i) {
    if (mask[i] > 0.5f && !std::isfinite(values[i])) {
      return Status::Error(ErrorCode::kNonFinite,
                           path + ": non-finite observed value at flat "
                                  "index " + std::to_string(i));
    }
  }
  loaded.num_steps = values.dim(0);
  loaded.num_nodes = n;
  loaded.graph.num_nodes = n;
  loaded.graph.distances = graph::PairwiseDistances(coords);
  loaded.graph.adjacency =
      graph::GaussianKernelAdjacency(loaded.graph.distances);
  *dataset = std::move(loaded);
  return Status::Ok();
}

}  // namespace pristi::data
