#ifndef PRISTI_DATA_IO_H_
#define PRISTI_DATA_IO_H_

// Dataset import/export so users can bring their own sensor feeds.
//
// Two formats:
//   * CSV — human-readable: a values file (rows = time steps, columns =
//     nodes; empty cells = missing) and an optional coordinates file
//     (one "x,y" row per node) from which the sensor graph is built.
//   * The checkpoint container — a "pristi-dataset" file is the lossless
//     round trip of a SpatioTemporalDataset (values, observed mask,
//     coordinates), written and read by serialize::SaveDatasetFile and
//     LoadDatasetFile (serialize/checkpoint.h). It is the format every
//     `pristi_cli --data` reads; AssembleDataset below holds the checks
//     particular to a dataset that the loader applies.

#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace pristi::data {

// ---- CSV -------------------------------------------------------------------
// Writes values (+mask as empty cells) to `values_path` and coordinates to
// `coords_path` (skipped when empty). Returns false on I/O failure.
bool WriteCsvDataset(const SpatioTemporalDataset& dataset,
                     const std::string& values_path,
                     const std::string& coords_path = "");

// Reads a dataset back. Empty cells become missing (observed_mask = 0;
// values 0). When `coords_path` is empty, sensor locations are generated
// pseudo-randomly from `rng` (the graph is then synthetic).
// `steps_per_day` is metadata the CSV cannot carry. CHECK-fails on a
// malformed file; returns a dataset with num_steps == 0 if the file cannot
// be opened.
SpatioTemporalDataset ReadCsvDataset(const std::string& values_path,
                                     const std::string& coords_path,
                                     int64_t steps_per_day, Rng& rng);

// ---- Stored datasets -------------------------------------------------------
// Builds `*dataset` from its stored parts and rebuilds its sensor graph from
// `coords`. Values and mask that are not equal-shaped (T, N) tensors and
// coords that are not (N, 2) are kShapeMismatch; a steps_per_day below 1 is
// kBadRecord; a NaN or Inf at an observed position is kNonFinite.
// `*dataset` is untouched on error.
Status AssembleDataset(const std::string& name, int64_t steps_per_day,
                       const Tensor& values, const Tensor& observed_mask,
                       const Tensor& coords, SpatioTemporalDataset* dataset);

}  // namespace pristi::data

#endif  // PRISTI_DATA_IO_H_
