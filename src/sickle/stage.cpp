#include "sickle/stage.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <span>

#include "common/timer.hpp"
#include "field/hypercube.hpp"
#include "ml/models.hpp"
#include "obs/trace.hpp"
#include "sampling/point_samplers.hpp"
#include "store/series_store.hpp"

namespace sickle {

namespace stage {

namespace {

namespace fs = std::filesystem;

/// Per-variable affine scaler (global z-score). All training tensors are
/// standardized so losses are comparable across datasets and targets with
/// large physical magnitudes (eps, pv) train properly.
struct VarScaler {
  double mean = 0.0;
  double inv_std = 1.0;
  [[nodiscard]] float apply(double x) const noexcept {
    return static_cast<float>((x - mean) * inv_std);
  }
};

/// Fit z-score scalers by streaming the series snapshot-major (one pass
/// over the store, all variables accumulated per visit — out-of-core
/// sources pay one reader/cache walk per snapshot, not one per variable).
/// Each variable's accumulator still sees its values in t-ascending flat
/// order — the same sequence as a span scan over an in-memory Dataset —
/// so scalers (and therefore training tensors) are bit-identical across
/// the memory/series backends for lossless codecs.
std::map<std::string, VarScaler> fit_scalers(
    const field::SeriesSource& series, std::span<const std::string> vars) {
  obs::Span span("sampling.scalers", "sampling");
  struct Acc {
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
  };
  std::vector<Acc> accs(vars.size());
  for (std::size_t t = 0; t < series.num_snapshots(); ++t) {
    const field::FieldSource& src = series.source(t);
    for (std::size_t v = 0; v < vars.size(); ++v) {
      src.for_each_flat(vars[v], [&](std::span<const double> vals) {
        for (const double x : vals) {
          accs[v].sum += x;
          accs[v].sq += x * x;
          ++accs[v].n;
        }
      });
    }
  }
  std::map<std::string, VarScaler> out;
  for (std::size_t v = 0; v < vars.size(); ++v) {
    SICKLE_CHECK_MSG(accs[v].n > 0, "scaler saw no values: " + vars[v]);
    VarScaler s;
    s.mean = accs[v].sum / static_cast<double>(accs[v].n);
    const double var_x = std::max(
        accs[v].sq / static_cast<double>(accs[v].n) - s.mean * s.mean,
        1e-24);
    s.inv_std = 1.0 / std::sqrt(var_x);
    out[vars[v]] = s;
  }
  return out;
}

/// Raw (unstandardized) dense values of `vars` inside a cube, as a
/// [C, E, E, E]-ordered flat vector (channel-major over the cube's
/// z-fastest point order). Works over any FieldSource, so the builder
/// pulls targets from RAM or from a spilled store alike.
std::vector<double> raw_dense_cube(const field::FieldSource& src,
                                   const field::CubeTiling& tiling,
                                   std::size_t cube_id,
                                   std::span<const std::string> vars) {
  const auto cube =
      field::extract_cube(src, tiling, tiling.coord(cube_id), vars);
  std::vector<double> out;
  out.reserve(vars.size() * cube.points());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    for (std::size_t p = 0; p < cube.points(); ++p) {
      out.push_back(cube.values[v][p]);
    }
  }
  return out;
}

/// Raw sampled input features of a cube as a fixed-length [C * N] row
/// (variable-major). Pads by cycling when fewer than N samples exist.
std::vector<double> raw_sampled_row(const sampling::CubeSamples& cs,
                                    std::span<const std::string> input_vars,
                                    std::size_t n_points) {
  std::vector<double> row;
  row.reserve(input_vars.size() * n_points);
  const std::size_t have = cs.samples.points();
  SICKLE_CHECK_MSG(have > 0, "cube produced no samples");
  for (const auto& var : input_vars) {
    const auto col = cs.samples.column(var);
    for (std::size_t i = 0; i < n_points; ++i) {
      row.push_back(col[i % have]);
    }
  }
  return row;
}

/// Standardize a variable-major raw block (per-var stride =
/// raw.size() / vars.size()) with each variable's scaler, per variable and
/// point-ascending.
std::vector<float> standardize(std::span<const double> raw,
                               std::span<const std::string> vars,
                               const std::map<std::string, VarScaler>& sc) {
  const std::size_t per = raw.size() / vars.size();
  std::vector<float> out;
  out.reserve(raw.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const VarScaler& s = sc.at(vars[v]);
    for (std::size_t p = 0; p < per; ++p) {
      out.push_back(s.apply(raw[v * per + p]));
    }
  }
  return out;
}

/// Streaming training-set builder: global z-score scalers are fit with a
/// dedicated pass over the series at construction; accepted cubes are then
/// captured as RAW examples the moment they are sampled, pulling dense
/// values from the snapshot source that produced them (its blocks are
/// still warm in the store's LRU cache) — no second pass over the raw data
/// and no accumulation of the full PipelineResult. take() standardizes
/// and builds the tensors.
class TrainingSetBuilder {
 public:
  TrainingSetBuilder(const field::SeriesSource& series, const CaseConfig& cfg)
      : cfg_(cfg),
        tiling_(series.source(0).shape(), cfg.pipeline.cube),
        edge_(cfg.pipeline.cube.ex) {
    const auto& pl = cfg.pipeline;
    SICKLE_CHECK_MSG(pl.cube.ex == pl.cube.ey && pl.cube.ex == pl.cube.ez,
                     "training cubes must be isotropic (E^3)");
    SICKLE_CHECK_MSG(!pl.output_vars.empty(), "training needs output_vars");
    SICKLE_CHECK_MSG(cfg.arch == "MLP_Transformer" ||
                         cfg.arch == "CNN_Transformer" ||
                         cfg.arch == "Foundation",
                     "build_training_set: unsupported arch " + cfg.arch);
    std::vector<std::string> all_vars = pl.input_vars;
    all_vars.insert(all_vars.end(), pl.output_vars.begin(),
                    pl.output_vars.end());
    scalers_ = fit_scalers(series, std::span<const std::string>(all_vars));
  }

  /// Capture one sampled cube's raw values. `src` must be the snapshot
  /// the cube was sampled from.
  void push(const field::FieldSource& src, const sampling::CubeSamples& cs) {
    const auto& pl = cfg_.pipeline;
    RawExample ex;
    ex.target = raw_dense_cube(src, tiling_, cs.cube_id,
                               std::span<const std::string>(pl.output_vars));
    if (cfg_.arch == "MLP_Transformer") {
      ex.input = raw_sampled_row(
          cs, std::span<const std::string>(pl.input_vars), pl.num_samples);
    } else {  // CNN_Transformer / Foundation: dense input cube
      ex.input = raw_dense_cube(src, tiling_, cs.cube_id,
                                std::span<const std::string>(pl.input_vars));
    }
    raw_.push_back(std::move(ex));
  }

  /// Standardize every captured example and build the tensors.
  [[nodiscard]] ml::TensorDataset take() {
    const auto& pl = cfg_.pipeline;
    const std::size_t c_out = pl.output_vars.size();
    ml::TensorDataset out;
    for (RawExample& ex : raw_) {
      auto tgt = standardize(std::span<const double>(ex.target),
                             std::span<const std::string>(pl.output_vars),
                             scalers_);
      ml::Tensor target({c_out, edge_, edge_, edge_}, std::move(tgt));
      auto in1 = standardize(std::span<const double>(ex.input),
                             std::span<const std::string>(pl.input_vars),
                             scalers_);
      if (cfg_.arch == "MLP_Transformer") {
        const std::size_t f = pl.input_vars.size() * pl.num_samples;
        std::vector<float> in;
        in.reserve(cfg_.window * f);
        // Window: this cube's samples from the `window` most recent
        // snapshots (repeating the earliest when history is short).
        for (std::size_t w = 0; w < cfg_.window; ++w) {
          in.insert(in.end(), in1.begin(), in1.end());
        }
        out.push(ml::Tensor({cfg_.window, f}, std::move(in)),
                 std::move(target));
      } else if (cfg_.arch == "CNN_Transformer") {
        std::vector<float> seq;
        seq.reserve(cfg_.window * in1.size());
        for (std::size_t w = 0; w < cfg_.window; ++w) {
          seq.insert(seq.end(), in1.begin(), in1.end());
        }
        out.push(ml::Tensor({cfg_.window, pl.input_vars.size(), edge_,
                             edge_, edge_},
                            std::move(seq)),
                 std::move(target));
      } else {  // Foundation (arch validated at construction)
        out.push(ml::Tensor({pl.input_vars.size(), edge_, edge_, edge_},
                            std::move(in1)),
                 std::move(target));
      }
      ex = RawExample{};  // release raw doubles as tensors replace them
    }
    raw_.clear();
    return out;
  }

 private:
  struct RawExample {
    std::vector<double> input;   ///< sampled row (MLP) or dense cube
    std::vector<double> target;  ///< dense output cube
  };

  const CaseConfig& cfg_;
  field::CubeTiling tiling_;
  std::size_t edge_;
  std::map<std::string, VarScaler> scalers_;
  std::vector<RawExample> raw_;
};

/// Reader-side I/O tallies of the spilled store — the per-case view of
/// what the global `store.cache.*` registry counters see process-wide.
/// Lands in CaseReport::metrics.
void record_spill_metrics(CaseReport& report,
                          const store::SeriesReader& reader) {
  const store::CacheStats cache = reader.cache_stats();
  report.metrics["store.cache_hits"] = static_cast<double>(cache.hits);
  report.metrics["store.cache_misses"] = static_cast<double>(cache.misses);
  report.metrics["store.cache_evictions"] =
      static_cast<double>(cache.evictions);
  report.metrics["store.io_bytes_read"] =
      static_cast<double>(reader.io_bytes_read());
}

/// Spill lifecycle (config-controlled): the directory is removed as soon
/// as the training set is built; if the run throws first, it is kept and
/// its path logged so a failed multi-hour spill can be inspected or
/// resumed instead of silently vanishing.
struct SpillGuard {
  fs::path dir;
  bool armed = false;

  void remove_now() {
    if (!armed) return;
    armed = false;
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  ~SpillGuard() {
    if (armed) {
      std::fprintf(stderr,
                   "sickle: run_case failed; spilled store kept at %s\n",
                   dir.string().c_str());
    }
  }
};

/// A fresh, collision-free spill directory under `root` (the config's
/// spill_dir or the system temp directory).
fs::path make_spill_dir(const std::string& root) {
  static std::atomic<std::uint64_t> run_id{0};
  const fs::path base =
      root.empty() ? fs::temp_directory_path() : fs::path(root);
  const fs::path dir =
      base / ("sickle_case_store_" + std::to_string(::getpid()) + "_" +
              std::to_string(run_id.fetch_add(1)));
  fs::create_directories(dir);
  return dir;
}

/// Resolve the temporal stage's PDF variable: explicit config, else the
/// cluster variable, else the first input variable.
std::string temporal_variable(const CaseConfig& cfg) {
  if (!cfg.temporal.variable.empty()) return cfg.temporal.variable;
  if (!cfg.pipeline.cluster_var.empty()) return cfg.pipeline.cluster_var;
  SICKLE_CHECK_MSG(!cfg.pipeline.input_vars.empty(),
                   "temporal selection needs a variable");
  return cfg.pipeline.input_vars.front();
}

/// Incremental FNV-1a 64 over POD values (chains store::fnv1a64 through
/// its seed parameter) — the sample-set fingerprint behind
/// CaseReport::sample_hash.
struct Fnv64 {
  std::uint64_t h = store::fnv1a64({});  // empty span returns the basis
  void bytes(const void* p, std::size_t n) noexcept {
    h = store::fnv1a64(
        std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(p), n),
        h);
  }
  template <typename T>
  void pod(const T& v) noexcept {
    bytes(&v, sizeof(T));
  }
};

/// Mirror the scalar CaseReport fields into the metrics map so one
/// key-value view carries the whole per-case telemetry story.
void finalize_case_metrics(CaseReport& report) {
  report.metrics["case.sampled_points"] =
      static_cast<double>(report.sampled_points);
  report.metrics["case.store_bytes"] =
      static_cast<double>(report.store_bytes);
  report.metrics["case.ingest_peak_bytes"] =
      static_cast<double>(report.ingest_peak_bytes);
  report.metrics["case.ingest_peak_disk_bytes"] =
      static_cast<double>(report.ingest_peak_disk_bytes);
  report.metrics["case.selected_snapshots"] =
      static_cast<double>(report.selected_snapshots.size());
}

/// Reader options for the "series" backend, carrying the session-shared
/// block cache through when the caller opted in (StoreOptions::
/// shared_cache, set by CaseSession).
store::ReaderOptions series_reader_options(const store::StoreOptions& s) {
  store::ReaderOptions ropts{s.cache_bytes, 0, s.prefetch_depth, s.pool};
  ropts.shared_cache = s.shared_cache;
  return ropts;
}

/// Pull every snapshot out of `producer` into `sink`, polling for
/// cancellation and reporting progress once per snapshot. At most one
/// produced snapshot is alive here at a time. Returns the largest
/// snapshot's size in bytes.
template <typename Sink>
std::size_t drain(flow::SnapshotProducer& producer, Observer* obs,
                  Sink&& sink) {
  const std::size_t planned = producer.num_snapshots();
  std::size_t done = 0;
  std::size_t max_snap_bytes = 0;
  while (auto snap = producer.next()) {
    checkpoint(obs);
    max_snap_bytes = std::max(max_snap_bytes, snap->bytes());
    sink(std::move(*snap));
    ++done;
    if (obs != nullptr) obs->on_progress(done, planned);
  }
  SICKLE_CHECK_MSG(done > 0, "producer yielded no snapshots");
  return max_snap_bytes;
}

/// Stage A for the series backend: simulate -> encode -> append -> drop.
/// The writer buffers at most one write-budget-bounded wave of encoded
/// blocks, so peak ingest memory is one snapshot + budget (+ codec
/// slack) — never the series.
std::unique_ptr<store::SeriesReader> spill_series(
    flow::SnapshotProducer& producer, const CaseConfig& cfg,
    const fs::path& dir, CaseReport& report, Observer* obs) {
  const std::string path = (dir / "series.skl3").string();
  store::SeriesWriter writer(path, cfg.store);
  const std::size_t max_snap_bytes = drain(
      producer, obs, [&](field::Snapshot&& snap) { writer.append(snap); });
  const auto wr = writer.close();
  report.store_bytes = wr.file_bytes;
  report.ingest_peak_bytes = max_snap_bytes + wr.peak_buffered_bytes;
  report.ingest_peak_disk_bytes = report.store_bytes;
  return std::make_unique<store::SeriesReader>(
      path, series_reader_options(cfg.store));
}

}  // namespace

void checkpoint(const Observer* obs) {
  if (obs != nullptr && obs->cancel_requested()) {
    throw CancelledError();
  }
}

std::vector<std::size_t> selection(const field::SeriesSource& series,
                                   const CaseConfig& cfg, CaseReport& report,
                                   Observer* obs) {
  if (obs != nullptr) obs->on_state(CaseState::kSelecting);
  checkpoint(obs);
  std::vector<std::size_t> selected(series.num_snapshots());
  std::iota(selected.begin(), selected.end(), std::size_t{0});
  // The span is emitted even when the stage is disabled, so every traced
  // case shows all four orchestrator stages.
  obs::Span span("case.selection", "case");
  double selection_seconds = 0.0;
  if (cfg.temporal.enabled()) {
    ScopedTimer selection_timer(selection_seconds);
    sampling::TemporalConfig tc;
    tc.variable = temporal_variable(cfg);
    tc.num_snapshots = cfg.temporal.num_snapshots;
    tc.bins = cfg.temporal.bins;
    selected = sampling::select_snapshots(series, tc);
    // Greedy selection order -> time order, so downstream stages see a
    // deterministic, chronologically coherent subset.
    std::sort(selected.begin(), selected.end());
    report.selected_snapshots = selected;
  }
  report.sampling_seconds += selection_seconds;
  report.metrics["case.selection_seconds"] = selection_seconds;
  return selected;
}

ml::TensorDataset sampling(const field::SeriesSource& series,
                           std::span<const std::size_t> selected,
                           const CaseConfig& cfg, CaseReport& report,
                           energy::EnergyCounter& sampling_energy,
                           Observer* obs) {
  const auto& pl = cfg.pipeline;
  if (obs != nullptr) obs->on_state(CaseState::kSampling);
  obs::Span span("case.sampling", "case");
  Timer stage_timer;
  TrainingSetBuilder builder(series, cfg);
  Fnv64 hash;
  const PoolHandle pool = resolve_threads(pl.threads);
  std::size_t done = 0;
  for (const std::size_t t : selected) {
    checkpoint(obs);
    const field::FieldSource& src = series.source(t);
    auto r = sampling::run_pipeline_streaming(src, pl, t, pool.get());
    report.sampled_points += r.total_points();
    report.sampling_seconds += r.sampling_seconds;
    sampling_energy.merge(r.energy);
    for (const auto& cs : r.cubes) {
      hash.pod<std::uint64_t>(cs.snapshot);
      hash.pod<std::uint64_t>(cs.cube_id);
      hash.pod<std::uint64_t>(cs.samples.points());
      for (const std::size_t idx : cs.samples.indices) {
        hash.pod<std::uint64_t>(idx);
      }
      for (const double x : cs.samples.features) hash.pod<double>(x);
      builder.push(src, cs);
    }
    if (obs != nullptr) obs->on_progress(++done, selected.size());
  }
  report.sample_hash = hash.h;
  report.metrics["case.sampling_seconds"] = stage_timer.seconds();
  return builder.take();
}

void training(const ml::TensorDataset& data, const CaseConfig& cfg,
              CaseReport& report, Observer* obs) {
  if (obs != nullptr) obs->on_state(CaseState::kTraining);
  checkpoint(obs);
  obs::Span span("case.training", "case");
  Timer stage_timer;
  const auto& pl = cfg.pipeline;
  Rng rng(cfg.train.seed, /*stream=*/0x40DE1);
  std::unique_ptr<ml::Module> model;
  const std::size_t edge = pl.cube.ex;
  if (cfg.arch == "MLP_Transformer") {
    ml::MlpTransformerConfig mc;
    mc.in_channels = pl.input_vars.size();
    mc.num_points = pl.num_samples;
    mc.dim = cfg.model_dim;
    mc.heads = cfg.model_heads;
    mc.layers = cfg.model_layers;
    mc.ffn = 2 * cfg.model_dim;
    mc.out_channels = pl.output_vars.size();
    mc.out_edge = edge;
    model = std::make_unique<ml::MlpTransformer>(mc, rng);
  } else if (cfg.arch == "CNN_Transformer") {
    ml::CnnTransformerConfig cc;
    cc.in_channels = pl.input_vars.size();
    cc.edge = edge;
    cc.dim = cfg.model_dim;
    cc.heads = cfg.model_heads;
    cc.layers = cfg.model_layers;
    cc.ffn = 2 * cfg.model_dim;
    cc.out_channels = pl.output_vars.size();
    cc.out_edge = edge;
    // Full-full runs are attention-dominated in the paper (quadratic in
    // token count); fine tokenization reproduces that cost profile.
    cc.fine_tokens = true;
    model = std::make_unique<ml::CnnTransformer>(cc, rng);
  } else if (cfg.arch == "Foundation") {
    ml::FoundationModelConfig fc;
    fc.in_channels = pl.input_vars.size();
    fc.edge = edge;
    fc.patch = std::max<std::size_t>(2, edge / 4);
    fc.dim = cfg.model_dim;
    fc.heads = cfg.model_heads;
    fc.layers = cfg.model_layers;
    fc.ffn = 2 * cfg.model_dim;
    fc.out_channels = pl.output_vars.size();
    model = std::make_unique<ml::FoundationModel>(fc, rng);
  } else {
    throw CaseError(CaseErrorCode::kTraining,
                    "run_case: unsupported arch " + cfg.arch);
  }

  report.train = ml::fit(*model, data, cfg.train);
  report.training_kilojoules = report.train.energy.projected_kilojoules();
  report.metrics["case.training_seconds"] = stage_timer.seconds();
}

CaseReport run_staged(ProducerBundle& bundle, CaseConfig cfg,
                      Observer* obs) {
  // Fill variable roles from the bundle when the config left them empty.
  auto& pl = cfg.pipeline;
  if (pl.input_vars.empty()) pl.input_vars = bundle.input_vars;
  if (pl.output_vars.empty()) pl.output_vars = bundle.output_vars;
  if (pl.cluster_var.empty()) pl.cluster_var = bundle.cluster_var;
  SICKLE_CHECK_MSG(cfg.backend == "memory" || cfg.backend == "series",
                   "unknown case backend: " + cfg.backend);

  try {
    CaseReport report;
    obs::Span case_span("case.run", "case");
    energy::EnergyCounter sampling_energy;
    ml::TensorDataset data;
    {
      // --- Stage A: ingest the producer as a SeriesSource — RAM views of
      // a Dataset (memory) or one streaming SKL3 container (series).
      SpillGuard guard;
      field::Dataset owned(bundle.name);
      std::unique_ptr<field::DatasetSeriesSource> memory;
      std::unique_ptr<store::SeriesReader> reader;
      double ingest_seconds = 0.0;
      {
        obs::Span ingest_span("case.ingest", "case");
        if (obs != nullptr) obs->on_state(CaseState::kIngesting);
        checkpoint(obs);
        ScopedTimer ingest_timer(ingest_seconds);
        if (cfg.backend == "memory") {
          // Borrow a Dataset the producer would only replay; otherwise
          // materialize it.
          const field::Dataset* ds = bundle.producer->resident();
          if (ds == nullptr) {
            (void)drain(*bundle.producer, obs, [&](field::Snapshot&& snap) {
              owned.push(std::move(snap));
            });
            ds = &owned;
          }
          memory = std::make_unique<field::DatasetSeriesSource>(*ds);
        } else {
          guard.dir = make_spill_dir(cfg.spill_dir);
          guard.armed = true;
          reader = spill_series(*bundle.producer, cfg, guard.dir, report, obs);
        }
      }
      report.sampling_seconds += ingest_seconds;
      report.metrics["case.ingest_seconds"] = ingest_seconds;

      const field::SeriesSource& series =
          memory != nullptr ? static_cast<const field::SeriesSource&>(*memory)
                            : *reader;
      const auto selected = selection(series, cfg, report, obs);
      data = sampling(series, std::span<const std::size_t>(selected), cfg,
                      report, sampling_energy, obs);

      // The spill is only needed until the training set exists; fold the
      // reader's I/O tallies, then reclaim the disk before the
      // (potentially long) training stage.
      if (reader != nullptr) record_spill_metrics(report, *reader);
      reader.reset();
      guard.remove_now();
    }
    // Node-projected energy: static power charged against roofline node
    // time, so ratios between cases track data volume and compute — the
    // regime the paper measures (see energy::EnergyModel).
    report.sampling_kilojoules = sampling_energy.projected_kilojoules();

    training(data, cfg, report, obs);
    finalize_case_metrics(report);
    return report;
  } catch (...) {
    // A failed or cancelled run must not leave a half-consumed producer:
    // rewind it when the generator supports the reset() contract so the
    // bundle can be resubmitted. Generators that cannot rewind
    // (flow::CloneError) stay consumed — documented, not silent.
    if (bundle.producer != nullptr) {
      try {
        bundle.producer->reset();
      } catch (const flow::CloneError&) {
        // Single-pass generator: nothing to restore.
      }
    }
    throw;
  }
}

}  // namespace stage

ml::TensorDataset build_training_set(const DatasetBundle& bundle,
                                     const sampling::PipelineResult& sampled,
                                     const CaseConfig& cfg) {
  const field::DatasetSeriesSource series(bundle.data);
  stage::TrainingSetBuilder builder(series, cfg);
  for (const auto& cs : sampled.cubes) {
    builder.push(series.source(cs.snapshot), cs);
  }
  return builder.take();
}

}  // namespace sickle
