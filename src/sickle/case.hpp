/// @file case.hpp
/// @brief Case runner: subsample -> train -> evaluate, the paper's
/// T1 -> T2 -> T3 workflow driven by one config.
///
/// run_case is a staged streaming orchestrator: (A) ingest the dataset as
/// a field::SeriesSource — held in RAM (backend "memory") or streamed
/// snapshot by snapshot into one SKL3 series container (backend
/// "series") — then (B) optional temporal snapshot selection over
/// streamed per-snapshot PDFs, (C) two-phase sampling per selected
/// snapshot with accepted points written straight into the training-set
/// builder (no second pass over the raw data), and (D) training. Both
/// backends run the same stages, so sample sets are bit-identical across
/// memory/series for lossless codecs.
///
/// The series backend consumes a flow::SnapshotProducer one snapshot at a
/// time — simulate -> encode -> append -> drop — so no full Dataset ever
/// exists and peak ingest memory is bounded by one snapshot plus the
/// writer's flush budget (CaseReport::ingest_peak_bytes, test-asserted).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ml/trainer.hpp"
#include "sampling/pipeline.hpp"
#include "sampling/temporal.hpp"
#include "sickle/dataset_zoo.hpp"
#include "sickle/errors.hpp"
#include "store/series_store.hpp"

namespace sickle {

/// Optional temporal snapshot selection stage (paper §4.3): keep only the
/// greedy max-min JS subset of snapshots before sampling and training.
struct TemporalSelection {
  /// Snapshots to keep; 0 disables the stage (all snapshots are used).
  std::size_t num_snapshots = 0;
  /// PDF variable; empty falls back to the pipeline's cluster_var, then
  /// its first input variable.
  std::string variable;
  std::size_t bins = 100;

  [[nodiscard]] bool enabled() const noexcept { return num_snapshots > 0; }
};

struct CaseConfig {
  sampling::PipelineConfig pipeline;
  /// "LSTM" | "MLP_Transformer" | "CNN_Transformer" | "Foundation"
  std::string arch = "MLP_Transformer";
  ml::TrainConfig train;
  std::size_t window = 1;   ///< input sequence length T
  std::size_t model_dim = 32;
  std::size_t model_heads = 4;
  std::size_t model_layers = 1;
  /// Sampling backend: "memory" runs the staged pipeline over the in-RAM
  /// dataset; "series" streams every snapshot into one SKL3 container
  /// (amortized header/index, shared block cache) and runs selection +
  /// sampling + training-set build out-of-core. Sample sets are identical
  /// across backends for lossless codecs, at any pipeline.threads value.
  std::string backend = "memory";
  store::StoreOptions store;  ///< chunking/codec knobs for the series backend
  /// Where the series backend places its temporary store; empty = the
  /// system temp directory. The spill is removed once the training set is
  /// built; on failure it is kept and its path logged to stderr.
  std::string spill_dir;
  TemporalSelection temporal;  ///< optional snapshot-subset stage

  /// ALL problems with this config at once — enum fields (backend, arch,
  /// codec), zero/negative sizes, and fraction ranges — so a config
  /// with three typos is fixed in one round trip instead of three.
  /// Empty means valid. CaseSession::submit throws ConfigError with this
  /// list; config_driver merges it into its own parse-level issues.
  /// run_case itself keeps its legacy first-throw SICKLE_CHECKs.
  [[nodiscard]] std::vector<ValidationIssue> validate() const;
};

struct CaseReport {
  std::size_t sampled_points = 0;
  /// Wall time of the T1 stages: ingest, temporal selection, and the
  /// per-snapshot sampling pipeline. Training-set tensor construction and
  /// scaler fitting are T2 cost and excluded.
  double sampling_seconds = 0.0;
  double sampling_kilojoules = 0.0;
  /// Compressed on-disk bytes of the spilled store (series only).
  std::size_t store_bytes = 0;
  /// Snapshot indices the temporal stage kept, ascending; empty when the
  /// stage is disabled (all snapshots were used).
  std::vector<std::size_t> selected_snapshots;
  /// FNV-1a fingerprint of the sampled cubes (snapshot, cube id, point
  /// indices, feature bit patterns) in pipeline order — equal across
  /// backends/codecs/thread counts exactly when the sample sets are
  /// bit-identical, which is what the e2e smoke CI job diffs.
  std::uint64_t sample_hash = 0;
  /// Series backend only: high-water mark of one produced snapshot plus
  /// the store writer's buffered encoded blocks — the "no full Dataset"
  /// guarantee, bounded by one snapshot + write_budget (+ codec slack).
  /// 0 for the memory backend (the Dataset itself is the peak).
  std::size_t ingest_peak_bytes = 0;
  /// High-water mark of live spill bytes on disk: the whole spilled store
  /// (= store_bytes) for the series backend, 0 for the memory backend.
  std::size_t ingest_peak_disk_bytes = 0;
  ml::TrainReport train;
  double training_kilojoules = 0.0;
  /// Per-stage telemetry, populated on every run (independent of the
  /// global obs::enabled() switch — these are per-case values, not
  /// process-cumulative registry counters). Keys: `case.*_seconds` wall
  /// times per stage, `case.sampled_points` / `case.store_bytes` /
  /// `case.ingest_peak_bytes` mirrors of the scalar fields, and for the
  /// series backend the reader-side `store.cache_*` / `store.io_*`
  /// tallies. Keys ending in `_seconds` are wall-clock and vary run to
  /// run; everything else is bit-stable for lossless codecs at
  /// pipeline.threads == 1.
  std::map<std::string, double> metrics;

  [[nodiscard]] double total_kilojoules() const noexcept {
    return sampling_kilojoules + training_kilojoules;
  }
};

/// Run the full pipeline on a generated dataset bundle. The bundle's
/// variable roles fill the pipeline config's variable lists when empty.
/// The memory backend borrows bundle.data without copying it; the series
/// backend replays it snapshot by snapshot into its store.
[[nodiscard]] CaseReport run_case(const DatasetBundle& bundle,
                                  CaseConfig cfg);

/// Generator-driven form: with the series backend, snapshots flow
/// simulate -> encode -> append -> drop and no full Dataset ever exists;
/// the memory backend drains the producer into a Dataset first. Sample
/// sets and training tensors are bit-identical across both backends for
/// lossless codecs. The producer is consumed.
[[nodiscard]] CaseReport run_case(ProducerBundle& bundle, CaseConfig cfg);

/// Build the supervised TensorDataset for a given architecture from the
/// sampling result (exposed for tests and custom training loops).
///
/// MLP_Transformer: input [T=window, C*N] sampled points; target dense
///   output cube [C', E, E, E] of the same (snapshot, cube).
/// CNN_Transformer / Foundation: input dense cube(s); target dense output
///   cube. Foundation input drops the time axis ([C, E, E, E]).
[[nodiscard]] ml::TensorDataset build_training_set(
    const DatasetBundle& bundle, const sampling::PipelineResult& sampled,
    const CaseConfig& cfg);

/// OF2D drag problem (sample-single): per snapshot, sample ns points with
/// `method` ("random" | "maxent" | "uips" | "stratified"), build windows of
/// length `window`, target = drag at the window's last step.
[[nodiscard]] ml::TensorDataset build_drag_dataset(
    const DatasetBundle& bundle, const std::string& method, std::size_t ns,
    std::size_t window, std::uint64_t seed,
    energy::EnergyCounter* energy = nullptr);

}  // namespace sickle
