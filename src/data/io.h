#ifndef PRISTI_DATA_IO_H_
#define PRISTI_DATA_IO_H_

// Dataset import/export so users can bring their own sensor feeds.
//
// Two formats:
//   * CSV — human-readable: a values file (rows = time steps, columns =
//     nodes; empty cells = missing) and an optional coordinates file
//     (one "x,y" row per node) from which the sensor graph is built.
//   * Binary — lossless round trip of a SpatioTemporalDataset (values,
//     observed mask, coordinates), for caching generated data.

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

// ---- Binary ----------------------------------------------------------------
bool WriteBinaryDataset(const SpatioTemporalDataset& dataset,
                        const std::string& path);
// Reads `path` into `*dataset` and rebuilds its sensor graph. Every kind of
// bad file is a typed error, never a CHECK abort: an unopenable file, a bad
// magic, a name over 64 KiB, a truncated stream, a malformed tensor header
// or a payload larger than the file (see tensor::ReadTensor), values and
// mask that are not equal-shaped (T, N), coords that are not (N, 2), and a
// NaN or Inf at an observed position. `*dataset` is untouched on error.
Status ReadBinaryDataset(const std::string& path,
                         SpatioTemporalDataset* dataset);

}  // namespace pristi::data

#endif  // PRISTI_DATA_IO_H_
