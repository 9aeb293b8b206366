/// @file snapshot_io.hpp
/// @brief Binary snapshot / sample-set storage (flat .skl format).
///
/// One of SICKLE's practical benefits is storage reduction: a feature-rich
/// subsampled dataset occupies a small fraction of the raw DNS checkpoint.
/// This module provides the flat load-everything on-disk format for full
/// snapshots and sampled subsets; the chunked compressed SKL3 container
/// for out-of-core access lives in store/series_store.hpp.
///
/// Layout (little-endian, host order — single-platform scientific format):
///   magic "SKL1" | u64 nx ny nz | f64 time | u64 nfields
///   per field: u32 name_len | name bytes | nx*ny*nz f64
/// Sample sets ("SKS1"):
///   magic | u64 npoints | u64 nvars | per var name | u64 indices | features
///   row-major [npoints][nvars].
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "field/field.hpp"

namespace sickle::io {

/// Write one snapshot; returns bytes written. Throws RuntimeError on I/O
/// failure.
std::size_t save_snapshot(const field::Snapshot& snap,
                          const std::string& path);

/// Read a snapshot written by save_snapshot.
[[nodiscard]] field::Snapshot load_snapshot(const std::string& path);

/// Sampled subset: global indices plus per-point feature rows.
struct SampleFile {
  std::vector<std::string> variables;
  std::vector<std::uint64_t> indices;
  std::vector<double> features;  ///< row-major [n][variables.size()]

  [[nodiscard]] std::size_t points() const noexcept {
    return indices.size();
  }
};

std::size_t save_samples(const SampleFile& samples, const std::string& path);
[[nodiscard]] SampleFile load_samples(const std::string& path);

/// Size of a file on disk in bytes (0 if missing).
[[nodiscard]] std::size_t file_bytes(const std::string& path);

}  // namespace sickle::io
