// Quickstart: generate a turbulence dataset, run the two-phase MaxEnt
// sampling pipeline, inspect the result, and save the sparse subset.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/example_quickstart
#include <cstdio>
#include <filesystem>

#include "io/sample_io.hpp"
#include "sampling/pipeline.hpp"
#include "sickle/dataset_zoo.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace sickle;

  // 1. A stratified-turbulence dataset (SST-P1F4 substitute; see Table 1).
  std::printf("generating SST-P1F4 (scaled)...\n");
  const DatasetBundle bundle = make_dataset("SST-P1F4", /*seed=*/42);
  const auto& snap = bundle.data.snapshot(0);
  std::printf("  grid %zux%zux%zu, %zu snapshots, %.1f MB, cluster var "
              "'%s'\n",
              snap.shape().nx, snap.shape().ny, snap.shape().nz,
              bundle.data.num_snapshots(),
              static_cast<double>(bundle.data.bytes()) / (1 << 20),
              bundle.cluster_var.c_str());

  // 2. Configure the two-phase pipeline: MaxEnt hypercube selection
  //    (Hmaxent) + MaxEnt point sampling (Xmaxent) at a ~10% rate.
  sampling::PipelineConfig cfg;
  cfg.cube = {8, 8, 8};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 16;
  cfg.num_samples = 51;  // 10% of 8^3
  cfg.num_clusters = 10;
  cfg.input_vars = bundle.input_vars;
  cfg.output_vars = bundle.output_vars;
  cfg.cluster_var = bundle.cluster_var;
  cfg.seed = 7;

  // 3. Run it.
  const sampling::PipelineResult result = run_pipeline(snap, cfg);
  std::printf("sampled %zu points from %zu cubes in %.3f s\n",
              result.total_points(), result.cubes.size(),
              result.sampling_seconds);
  std::printf("  %s\n", result.energy.report().c_str());

  // 4. Inspect: the sampled subset should preserve the cluster variable's
  //    spread (that is the point of MaxEnt).
  const auto merged = result.merged();
  const auto sampled_pv = merged.column(bundle.cluster_var);
  const auto full_pv_span = snap.get(bundle.cluster_var).data();
  const std::vector<double> full_pv(full_pv_span.begin(),
                                    full_pv_span.end());
  const auto ms = stats::compute_moments(sampled_pv);
  const auto mf = stats::compute_moments(full_pv);
  std::printf("  %s: full std %.4f / range [%.3f, %.3f]\n",
              bundle.cluster_var.c_str(), mf.stddev, mf.min, mf.max);
  std::printf("  %s: sampled std %.4f / range [%.3f, %.3f]\n",
              bundle.cluster_var.c_str(), ms.stddev, ms.min, ms.max);

  // 5. Persist the sparse subset (storage reduction).
  io::SampleFile file;
  file.variables = merged.variables;
  file.indices.assign(merged.indices.begin(), merged.indices.end());
  file.features = merged.features;
  const auto path =
      (std::filesystem::temp_directory_path() / "quickstart_samples.skl")
          .string();
  const std::size_t bytes = io::save_samples(file, path);
  std::printf("saved sparse subset: %s (%zu bytes, vs %.0f bytes dense)\n",
              path.c_str(), bytes,
              static_cast<double>(snap.bytes()));
  return 0;
}
