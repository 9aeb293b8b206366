#include "stages.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sickle/stage.hpp"
#include "store/series_store.hpp"

namespace perfbench {

RegistryDelta::RegistryDelta()
    : before_(sickle::obs::MetricsRegistry::global().snapshot()) {}

double RegistryDelta::since(const std::string& name) const {
  const auto now = sickle::obs::MetricsRegistry::global().snapshot();
  const auto it = now.find(name);
  if (it == now.end()) return 0.0;
  const auto was = before_.find(name);
  return it->second - (was == before_.end() ? 0.0 : was->second);
}

namespace {

/// Blocks decoded from the file: demand misses plus prefetched blocks a
/// demand access consumed.
double blocks_fetched(const sickle::store::CacheStats& s) {
  return static_cast<double>(s.misses + s.prefetch_hits);
}

}  // namespace

void LayerTable::add(const Figures& f) {
  for (const auto& [name, fig] : f) {
    Column& c = columns_[name];
    c.samples.add(fig.value);
    c.unit = fig.unit;
  }
}

void LayerTable::report(Report& r) const {
  for (const auto& [name, c] : columns_) r.median(name, c.samples, c.unit);
}

sickle::CaseConfig with_roles(sickle::CaseConfig cfg,
                              const sickle::ProducerBundle& b) {
  auto& pl = cfg.pipeline;
  if (pl.input_vars.empty()) pl.input_vars = b.input_vars;
  if (pl.output_vars.empty()) pl.output_vars = b.output_vars;
  if (pl.cluster_var.empty()) pl.cluster_var = b.cluster_var;
  return cfg;
}

std::size_t build_store(sickle::flow::SnapshotProducer& producer,
                        const sickle::store::StoreOptions& opts,
                        const std::string& path, Figures& fig,
                        Samples& snapshot_ms) {
  using sickle::obs::Span;
  const RegistryDelta reg;
  double flow_s = 0.0;
  double write_s = 0.0;
  sickle::store::SeriesWriter writer(path, opts);
  for (;;) {
    std::optional<sickle::field::Snapshot> snap;
    {
      Span span("flow.next", "flow");
      const auto t0 = Clock::now();
      snap = producer.next();
      const double s = seconds_between(t0, Clock::now());
      if (!snap) break;
      flow_s += s;
      snapshot_ms.add(s * 1e3);
    }
    {
      Span span("store.write", "store");
      const auto t0 = Clock::now();
      writer.append(*snap);
      write_s += seconds_between(t0, Clock::now());
    }
  }
  Span span("store.write", "store");
  const auto t0 = Clock::now();
  const std::size_t bytes = writer.close().file_bytes;
  write_s += seconds_between(t0, Clock::now());
  fig["flow.next_s"] = {flow_s, "s"};
  fig["store.write_s"] = {write_s, "s"};
  fig["store.encode_s"] = {reg.since("codec.encode_seconds"), "s"};
  return bytes;
}

sickle::CaseReport curate(const sickle::CaseConfig& cfg,
                          const std::string& path, Figures& fig) {
  using sickle::obs::Span;
  namespace stage = sickle::stage;
  const RegistryDelta reg;
  sickle::CaseReport report;
  sickle::ml::TensorDataset data;
  {
    auto t0 = Clock::now();
    std::unique_ptr<sickle::store::SeriesReader> reader;
    {
      Span span("store.open", "store");
      sickle::store::ReaderOptions ro{cfg.store.cache_bytes, 0,
                                      cfg.store.prefetch_depth,
                                      cfg.store.pool};
      reader = std::make_unique<sickle::store::SeriesReader>(path, ro);
    }
    fig["store.open_ms"] = {seconds_between(t0, Clock::now()) * 1e3, "ms"};

    std::vector<std::size_t> selected;
    {
      Span span("sampling.select", "sampling");
      t0 = Clock::now();
      selected = stage::selection(*reader, cfg, report);
    }
    fig["sampling.select_s"] = {seconds_between(t0, Clock::now()), "s"};
    fig["sampling.select_blocks"] = {blocks_fetched(reader->cache_stats()),
                                     "count"};

    const RegistryDelta pool;
    sickle::energy::EnergyCounter sampling_energy;
    {
      Span span("sampling.stage", "sampling");
      t0 = Clock::now();
      data = stage::sampling(*reader,
                             std::span<const std::size_t>(selected), cfg,
                             report, sampling_energy);
    }
    const double stage_s = seconds_between(t0, Clock::now());
    report.sampling_kilojoules = sampling_energy.projected_kilojoules();
    fig["sampling.stage_s"] = {stage_s, "s"};
    fig["sampling.points"] = {static_cast<double>(report.sampled_points),
                              "count"};
    const double busy = pool.since("pool.busy_seconds");
    const double threads =
        static_cast<double>(std::max<std::size_t>(1, cfg.pipeline.threads));
    fig["pool.parallel_frac"] = {
        stage_s > 0.0 ? busy / (threads * stage_s) : 0.0, "ratio"};

    const auto cs = reader->cache_stats();
    fig["store.blocks_fetched"] = {blocks_fetched(cs), "count"};
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    fig["store.cache_hit_ratio"] = {
        lookups > 0.0 ? static_cast<double>(cs.hits) / lookups : 0.0,
        "ratio"};
    fig["store.io_mb"] = {
        static_cast<double>(reader->io_bytes_read()) / (1 << 20), "MiB"};
  }
  fig["store.decode_s"] = {reg.since("codec.decode_seconds"), "s"};

  {
    Span span("ml.fit", "ml");
    const auto t0 = Clock::now();
    stage::training(data, cfg, report);
    const double fit_s = seconds_between(t0, Clock::now());
    fig["ml.fit_s"] = {fit_s, "s"};
    const double epochs = static_cast<double>(report.train.epoch_losses.size());
    fig["ml.epochs"] = {epochs, "count"};
    fig["ml.examples_per_s"] = {
        fit_s > 0.0 ? static_cast<double>(data.size()) * epochs / fit_s : 0.0,
        "1/s"};
  }
  return report;
}

void pool_figures(const RegistryDelta& op, Figures& fig) {
  fig["pool.busy_s"] = {op.since("pool.busy_seconds"), "s"};
  fig["pool.queue_wait_s"] = {op.since("pool.queue_wait_seconds"), "s"};
  fig["pool.tasks"] = {op.since("pool.tasks_executed"), "count"};
}

sickle::CaseReport compose_case(const CaseSpec& spec, const std::string& path,
                                Figures& fig, Samples& snapshot_ms) {
  sickle::obs::Span span("bench.op", "bench");
  const RegistryDelta op;
  sickle::ProducerBundle bundle = spec.producer();
  const sickle::CaseConfig cfg = with_roles(spec.config(), bundle);
  (void)build_store(*bundle.producer, cfg.store, path, fig, snapshot_ms);
  sickle::CaseReport r = curate(cfg, path, fig);
  pool_figures(op, fig);
  std::filesystem::remove(path);
  return r;
}

void report_traced(Report& r, const LayerTable& layers,
                   const Samples& snapshot_ms, const Samples& untraced_s,
                   const Samples& traced_s) {
  layers.report(r);
  r.median("flow.snapshot_ms", snapshot_ms, "ms");
  r.median("trace.unattributed_frac", summarize_trace("bench.op").unattributed,
           "ratio");
  if (!untraced_s.empty() && !traced_s.empty()) {
    r.set("trace.overhead_frac", traced_s.median() / untraced_s.median() - 1.0,
          "ratio", traced_s.size());
  }
}

}  // namespace perfbench
