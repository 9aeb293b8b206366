/// @file pipeline.hpp
/// @brief Two-phase sampling pipeline (the paper's subsample.py equivalent).
///
/// Combines phase-1 hypercube selection (H*) with phase-2 point sampling
/// (X*) over one snapshot or a whole dataset, with optional SPMD
/// parallelism over cubes and energy accounting. The five Slurm cases of
/// Figs. 7–8 map to PipelineConfig as:
///   Hmaxent-Xmaxent  {hypercube_method=maxent, point_method=maxent}
///   Hmaxent-Xuips    {maxent, uips}
///   Hrandom-Xfull    {random, full}
///   Hrandom-Xmaxent  {random, maxent}
///   Hrandom-Xuips    {random, uips}
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "energy/energy.hpp"
#include "field/field.hpp"
#include "field/field_source.hpp"
#include "field/hypercube.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/world.hpp"
#include "sampling/sample_set.hpp"

namespace sickle::sampling {

struct PipelineConfig {
  field::CubeSpec cube;                 ///< --nxsl/--nysl/--nzsl
  std::string hypercube_method = "maxent";  ///< --hypercubes
  std::string point_method = "maxent";      ///< --method
  std::size_t num_hypercubes = 32;          ///< --num_hypercubes
  std::size_t num_samples = 3277;           ///< --num_samples (per cube)
  std::size_t num_clusters = 20;            ///< --num_clusters
  std::vector<std::string> input_vars;      ///< --input_vars
  std::vector<std::string> output_vars;     ///< --output_vars
  std::string cluster_var;                  ///< --cluster_var
  std::size_t pdf_bins = 10;                ///< UIPS bins per axis
  std::uint64_t seed = 42;
  /// Worker threads for cube scoring and per-cube point sampling:
  /// 1 = serial (default), 0 = all hardware threads, N = a dedicated
  /// N-worker pool. Sample sets are bit-identical for every value — the
  /// clustering fit and cube draw consume RNG before the fan-out, each
  /// cube forks its own RNG, and all reductions run in cube-id order.
  /// With threads != 1 the snapshot source is gathered concurrently, so a
  /// store-backed run shares one thread-safe sharded SeriesReader.
  std::size_t threads = 1;
};

/// Samples extracted from one cube of one snapshot.
struct CubeSamples {
  std::size_t snapshot = 0;
  std::size_t cube_id = 0;
  SampleSet samples;  ///< variables = input_vars + output_vars + cluster_var
};

struct PipelineResult {
  std::vector<CubeSamples> cubes;
  double sampling_seconds = 0.0;
  energy::EnergyCounter energy;

  /// All samples of one snapshot concatenated.
  [[nodiscard]] SampleSet merged() const;
  [[nodiscard]] std::size_t total_points() const;
};

/// Pipeline over one snapshot; cube scoring and point sampling honor
/// cfg.threads (1 = serial default) with thread-count-independent results.
[[nodiscard]] PipelineResult run_pipeline(const field::Snapshot& snap,
                                          const PipelineConfig& cfg);

/// Out-of-core pipeline over any FieldSource — in particular a snapshot
/// view of a store::SeriesReader, whose LRU block cache bounds memory so
/// snapshots larger than RAM can be sampled chunk-by-chunk. Produces exactly the
/// sample set run_pipeline would on the equivalent in-memory snapshot
/// (bit-exact for lossless store codecs; within tolerance for quantized
/// ones). `snapshot_index` reproduces the t-th snapshot's contribution of
/// the Dataset overload (selector seed offset + per-cube RNG fork).
[[nodiscard]] PipelineResult run_pipeline_streaming(
    const field::FieldSource& src, const PipelineConfig& cfg,
    std::size_t snapshot_index = 0);

/// Pool-reusing variant for multi-snapshot drivers: `pool` overrides
/// cfg.threads (nullptr = serial), so a dedicated worker pool can be
/// resolved once per run instead of once per snapshot. Results are
/// identical to the 3-argument overload for any pool.
[[nodiscard]] PipelineResult run_pipeline_streaming(
    const field::FieldSource& src, const PipelineConfig& cfg,
    std::size_t snapshot_index, ThreadPool* pool);

/// Pipeline over the `snapshots` subset of any time-ordered series — the
/// entry point the staged case orchestrator and temporal selection feed.
/// Each listed snapshot keeps its original index t for seed offsets and
/// RNG forks, so sampling a subset returns exactly those snapshots'
/// contributions of a full run. One pool is resolved from cfg.threads for
/// the whole call. With a store::SeriesReader as the series this is the
/// fully out-of-core multi-snapshot path (memory bounded by the reader's
/// shared block cache).
[[nodiscard]] PipelineResult run_pipeline_streaming(
    const field::SeriesSource& series, const PipelineConfig& cfg,
    std::span<const std::size_t> snapshots);

/// Pipeline over every snapshot of a dataset. Snapshots are processed in
/// order; within each snapshot, cube scoring and point sampling honor
/// cfg.threads (one pool resolved for the whole run). Results are
/// independent of the thread count. Delegates to the SeriesSource
/// overload, so in-memory and streamed runs share one implementation.
[[nodiscard]] PipelineResult run_pipeline(const field::Dataset& dataset,
                                          const PipelineConfig& cfg);

/// SPMD pipeline: collective over `comm`; cube work is block-decomposed
/// over ranks and results are allgathered, so every rank returns the full
/// result. The selection is identical for every rank count (deterministic
/// counter RNG keyed by cube id).
[[nodiscard]] PipelineResult run_pipeline(const field::Snapshot& snap,
                                          const PipelineConfig& cfg,
                                          Comm& comm);

/// Variables a cube extraction must carry for this config (input + output +
/// cluster var, deduplicated, order-stable).
[[nodiscard]] std::vector<std::string> pipeline_variables(
    const PipelineConfig& cfg);

}  // namespace sickle::sampling
