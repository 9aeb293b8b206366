// Storage reduction: write a dense DNS snapshot three ways — uncompressed
// (raw-codec) SKL3, compressed SKL3, and a MaxEnt-sampled sparse subset —
// and compare their on-disk footprints. Also demonstrates out-of-core
// sampling straight from the compressed store.
#include <cstdio>
#include <filesystem>

#include "io/sample_io.hpp"
#include "sampling/pipeline.hpp"
#include "sickle/dataset_zoo.hpp"
#include "store/series_store.hpp"

namespace {

/// Store one snapshot as a one-snapshot SKL3 container.
sickle::store::SeriesWriteReport write_one(
    const sickle::field::Snapshot& snap, const std::string& path,
    const sickle::store::StoreOptions& opts) {
  sickle::store::SeriesWriter writer(path, opts);
  writer.append(snap);
  return writer.close();
}

}  // namespace

int main() {
  using namespace sickle;

  const DatasetBundle bundle = make_dataset("GESTS-2048", /*seed=*/42);
  const auto& snap = bundle.data.snapshot(0);
  const auto dir = std::filesystem::temp_directory_path();

  // The dense reference: the same chunked store, uncompressed.
  store::StoreOptions sopts;
  sopts.chunk = {16, 16, 16};
  sopts.codec = "raw";
  const std::size_t dense =
      write_one(snap, (dir / "gests_dense.skl3").string(), sopts).file_bytes;
  std::printf("dense snapshot:  %10zu bytes (%zu points x %zu vars)\n",
              dense, snap.shape().size(), snap.num_fields());

  // Chunked compressed stores: lossless delta and 1e-3-tolerance quant.
  sopts.codec = "delta";
  const auto delta_report =
      write_one(snap, (dir / "gests_delta.skl3").string(), sopts);
  sopts.codec = "quant";
  sopts.tolerance = 1e-3;
  const auto quant_report =
      write_one(snap, (dir / "gests_quant.skl3").string(), sopts);
  std::printf("SKL3 delta:      %10zu bytes (lossless, %.2fx vs raw)\n",
              delta_report.file_bytes, delta_report.compression_ratio());
  std::printf("SKL3 quant 1e-3: %10zu bytes (lossy, %.2fx vs raw)\n",
              quant_report.file_bytes, quant_report.compression_ratio());

  sampling::PipelineConfig cfg;
  cfg.cube = {8, 8, 8};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = field::CubeTiling(snap.shape(), cfg.cube).count();
  cfg.num_samples = 51;  // 10% of each cube
  cfg.num_clusters = 8;
  cfg.input_vars = bundle.input_vars;
  cfg.output_vars = bundle.output_vars;
  cfg.cluster_var = bundle.cluster_var;
  const auto result = run_pipeline(snap, cfg);
  const auto merged = result.merged();

  // The same sampling also runs out-of-core, streaming chunks from the
  // compressed store instead of touching the in-memory snapshot.
  const store::SeriesReader reader((dir / "gests_delta.skl3").string());
  const auto streamed =
      sampling::run_pipeline_streaming(reader.source(0), cfg).merged();
  std::printf("out-of-core:     sampled %zu points from the delta store "
              "(%s in-memory result)\n",
              streamed.points(),
              streamed.indices == merged.indices ? "identical to"
                                                 : "DIFFERS from");

  io::SampleFile file;
  file.variables = merged.variables;
  file.indices.assign(merged.indices.begin(), merged.indices.end());
  file.features = merged.features;
  const std::size_t sparse =
      io::save_samples(file, (dir / "gests_sparse.skl").string());
  std::printf("sparse subset:   %10zu bytes (%zu points, all variables + "
              "indices)\n",
              sparse, merged.points());
  std::printf("reduction:       %.1fx\n",
              static_cast<double>(dense) / static_cast<double>(sparse));

  std::filesystem::remove(dir / "gests_dense.skl3");
  std::filesystem::remove(dir / "gests_delta.skl3");
  std::filesystem::remove(dir / "gests_quant.skl3");
  std::filesystem::remove(dir / "gests_sparse.skl");
  return 0;
}
