/// @file cube_scoring.hpp
/// @brief Fused, batched, thread-parallel cube-scoring engine.
///
/// Phase-1 selection weights every cube of a tiling by how much its
/// cluster-label distribution diverges from the other cubes'. The legacy
/// path classified one grid point per KMeansResult::assign call (a
/// single-element span each), accumulated floating-point PMFs, and built a
/// dense serial O(n^2 k) KL adjacency with a log in the inner loop. The
/// engine here fuses the hot path:
///
///   gather cube values -> assign_batch -> integer label counts
///
/// with no intermediate per-point spans and no PMF until one final
/// normalization, and computes KL node strengths in blocked form from
/// precomputed log rows (stats::kl_row_strength). Both stages fan out over
/// a ThreadPool with cube-id-ordered reduction into preallocated slots, so
/// serial and parallel runs are bit-exact for any thread count. Sources
/// must tolerate concurrent gather() when a pool is supplied (Snapshot
/// sources are read-only; store::SeriesReader shards its cache).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "field/field_source.hpp"
#include "field/hypercube.hpp"
#include "parallel/thread_pool.hpp"

namespace sickle::sampling {

/// Per-cube label histograms for cubes [cube_begin, cube_end) of the
/// tiling: counts[(c - cube_begin) * clusters.k + label]. `pool == nullptr`
/// runs serial; any pool produces identical counts (integer accumulation
/// into disjoint per-cube slots). Gather/label buffers are reused across
/// the cubes of one worker chunk, so the engine allocates O(threads *
/// points_per_cube), never O(grid).
[[nodiscard]] std::vector<std::uint32_t> count_cube_labels(
    const field::FieldSource& src, const field::CubeTiling& tiling,
    const cluster::KMeansResult& clusters, const std::string& var,
    ThreadPool* pool = nullptr, std::size_t cube_begin = 0,
    std::size_t cube_end = std::numeric_limits<std::size_t>::max());

/// Normalize integer label counts into a flat row-major [n x k] PMF
/// matrix. Bit-identical to accumulating 1.0 per point and scaling, as the
/// legacy per-point path did.
[[nodiscard]] std::vector<double> pmfs_from_counts(
    std::span<const std::uint32_t> counts, std::size_t k,
    std::size_t points_per_cube);

/// KL node strengths (Eq. 2) over flat [n x k] PMFs: strength[i] =
/// sum_j KL(p_i || p_j), computed in O(n·k) total via the algebraic
/// column-log-sum identity (stats::kl_row_strength_fast) and parallelized
/// by row. Each row is computed wholly by one task, so the result is
/// independent of the thread count.
[[nodiscard]] std::vector<double> kl_node_strengths(
    std::span<const double> pmfs, std::size_t n, std::size_t k,
    ThreadPool* pool = nullptr, double eps = 1e-12);

/// Per-row Shannon entropies of flat [n x k] PMFs — the "entropy"
/// weighting ablation.
[[nodiscard]] std::vector<double> pmf_row_entropies(
    std::span<const double> pmfs, std::size_t n, std::size_t k);

}  // namespace sickle::sampling
