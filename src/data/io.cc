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

Status AssembleDataset(const std::string& name, int64_t steps_per_day,
                       const Tensor& values, const Tensor& observed_mask,
                       const Tensor& coords, SpatioTemporalDataset* dataset) {
  if (values.ndim() != 2 || observed_mask.shape() != values.shape()) {
    return Status::Error(ErrorCode::kShapeMismatch,
                         "values and mask must be equal-shaped (T, N) "
                         "tensors");
  }
  int64_t n = values.dim(1);
  if (coords.shape() != tensor::Shape{n, 2}) {
    return Status::Error(ErrorCode::kShapeMismatch,
                         "coords must be (N, 2) with N = " +
                             std::to_string(n));
  }
  // The daily-average baseline takes each step modulo the period.
  if (steps_per_day < 1) {
    return Status::Error(ErrorCode::kBadRecord,
                         "steps_per_day must be >= 1, got " +
                             std::to_string(steps_per_day));
  }
  for (int64_t i = 0; i < values.numel(); ++i) {
    if (observed_mask[i] > 0.5f && !std::isfinite(values[i])) {
      return Status::Error(ErrorCode::kNonFinite,
                           "non-finite observed value at flat index " +
                               std::to_string(i));
    }
  }
  SpatioTemporalDataset assembled;
  assembled.name = name;
  assembled.num_steps = values.dim(0);
  assembled.num_nodes = n;
  assembled.steps_per_day = steps_per_day;
  assembled.values = values;
  assembled.observed_mask = observed_mask;
  assembled.graph.num_nodes = n;
  assembled.graph.coords = coords;
  assembled.graph.distances = graph::PairwiseDistances(coords);
  assembled.graph.adjacency =
      graph::GaussianKernelAdjacency(assembled.graph.distances);
  *dataset = std::move(assembled);
  return Status::Ok();
}

}  // namespace pristi::data
