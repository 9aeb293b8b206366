// The case pipeline composed from SICKLE's public stage calls, with the
// benchmark's own span and clock around each call into a layer. Run over
// the same config, it yields the same sample_hash and test_loss as
// run_case with the series backend and streaming ingest; the workloads
// check that on every run.
#pragma once

#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// Before/after view of the global metrics registry (the counters the
/// library already publishes while observability is on).
class RegistryDelta {
 public:
  RegistryDelta();
  /// Growth of counter or gauge `name` since construction.
  [[nodiscard]] double since(const std::string& name) const;

 private:
  std::map<std::string, double> before_;
};

/// One per-layer figure of one operation, with its unit.
struct Figure {
  double value;
  const char* unit;
};
/// Per-layer figures of one operation, keyed by per-layer metric name.
using Figures = std::map<std::string, Figure>;

/// Per-operation figures gathered over a run; reported as medians.
class LayerTable {
 public:
  void add(const Figures& f);
  void report(Report& r) const;

 private:
  struct Column {
    Samples samples;
    const char* unit;
  };
  std::map<std::string, Column> columns_;
};

/// `cfg` with the dataset's variable roles filled in where the YAML left
/// them empty, as run_case does before its first stage.
[[nodiscard]] sickle::CaseConfig with_roles(sickle::CaseConfig cfg,
                                            const sickle::ProducerBundle& b);

/// Drain `producer` one snapshot at a time into an SKL3 store at `path`
/// and seal it (layers flow and store-write). Adds one sample per snapshot
/// to `snapshot_ms`. Returns the file size.
std::size_t build_store(sickle::flow::SnapshotProducer& producer,
                        const sickle::store::StoreOptions& opts,
                        const std::string& path, Figures& fig,
                        Samples& snapshot_ms);

/// Open the sealed store at `path` and run selection, sampling and
/// training on it (layers store-read, sampling and ml, and
/// pool.parallel_frac of the sampling stage).
[[nodiscard]] sickle::CaseReport curate(const sickle::CaseConfig& cfg,
                                        const std::string& path,
                                        Figures& fig);

/// pool.busy_s, pool.queue_wait_s and pool.tasks since `op` was taken:
/// every pool task of the operation (store encode, readahead decode,
/// sampling workers).
void pool_figures(const RegistryDelta& op, Figures& fig);

/// The case of `spec` composed from the stage calls under one `bench.op`
/// span: generate and seal the store at `path` (removed afterwards), then
/// curate it. Gives the same outcome as run_case of the same config.
[[nodiscard]] sickle::CaseReport compose_case(const CaseSpec& spec,
                                              const std::string& path,
                                              Figures& fig,
                                              Samples& snapshot_ms);

/// Report a traced ingest or curate run: the layer medians, the median
/// snapshot time, the unattributed share of each `bench.op` span, and the
/// tracing overhead from the untraced and traced operations of the run.
void report_traced(Report& r, const LayerTable& layers,
                   const Samples& snapshot_ms, const Samples& untraced_s,
                   const Samples& traced_s);

}  // namespace perfbench
