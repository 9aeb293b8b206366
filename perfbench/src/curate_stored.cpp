// Workload curate_stored: the paper's own use, curating a DNS series that
// already sits on disk. Set-up generates and seals one scale-1 SST-P1F4
// SKL3 store; every operation then opens its own reader and runs temporal
// selection (4 of 8 snapshots), maxent sampling on 4 threads and training
// through the public stage calls. No generation happens inside an
// operation, so a faster generator must leave case_s here unchanged.
// The stored series is one fixed DNS, as in the paper; --seed picks the
// kConfigs sampling/training seeds the operations cycle through over it,
// and test_loss and energy_j are means over those configs. (Over
// different generated series, or over 4 configs, the held-out loss of
// this case spreads by 15-40% between runs, which would drown any
// numerics change.) Operations run whole rounds over the configs, and
// each is checked against run_case of its config over the same series,
// regenerated in memory after the timed rounds.
#include <filesystem>

#include "obs/trace.hpp"
#include "stages.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kConfigs = 8;
constexpr std::uint64_t kDatasetSeed = 42;  // the zoo's default series
/// Rough wall time of one scale-1 operation, which sizes the rounds.
constexpr double kOpSeconds = 1.0;
/// Reference run_cases at once; each samples on 4 threads.
constexpr std::size_t kReferenceWorkers = 2;

/// `shared.seed` here seeds sampling and training only: the dataset is
/// the stored series, generated from its own seed.
CaseSpec curate_case(const Args& args, std::size_t k) {
  std::string y;
  y += "shared:\n";
  y += "  dataset: SST-P1F4\n";
  y += "  seed: " + std::to_string(derive_seed(args.seed, 10 + k)) + "\n";
  y += "subsample:\n";
  y += "  hypercubes: maxent\n";
  y += "  method: maxent\n";
  y += "  num_hypercubes: 512\n";
  y += "  num_samples: 16\n";
  y += "  num_clusters: 8\n";
  y += "  nxsl: 4\n  nysl: 4\n  nzsl: 4\n";
  y += "  threads: 4\n";
  y += "temporal:\n";
  y += "  num_snapshots: 4\n";
  y += "store:\n";
  y += "  backend: series\n";
  y += "  ingest: streaming\n";
  y += "  codec: gorilla\n";
  y += "  chunk: 16\n";
  y += "  spill_dir: " + args.workdir + "/spill\n";
  y += "train:\n";
  y += "  arch: MLP_transformer\n";
  y += "  epochs: 8\n  batch: 8\n  dim: 16\n  heads: 2\n";
  // Half the examples are held out, so each config's test loss rests on
  // enough of them to be a stable figure.
  y += "  test_frac: 0.5\n";
  return CaseSpec{y};
}

}  // namespace

void run_curate_stored(const Args& args, Report& report) {
  const std::string store_path = args.workdir + "/series.skl3";
  const double scale = args.tiny ? 0.25 : 1.0;

  // Set-up: generate the series and seal the store, several times; the
  // last store stays. Tracing (when asked for) is on here too: this is
  // where the flow and store-write layers of this workload show.
  if (args.trace) sickle::obs::set_enabled(true);
  Samples setup_s;
  LayerTable setup_layers;
  Samples snapshot_ms;
  std::size_t store_bytes = 0;
  std::vector<sickle::CaseConfig> cfgs;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    sickle::ProducerBundle pb =
        sickle::make_dataset_producer("SST-P1F4", kDatasetSeed, scale);
    cfgs.clear();
    for (std::size_t k = 0; k < kConfigs; ++k) {
      cfgs.push_back(with_roles(curate_case(args, k).config(), pb));
    }
    Figures fig;
    store_bytes = build_store(*pb.producer, cfgs[0].store, store_path, fig,
                              snapshot_ms);
    setup_s.add(seconds_between(t0, Clock::now()));
    setup_layers.add(fig);
  }
  sickle::obs::set_enabled(false);

  // Timed: whole rounds over the configs. A traced run traces every
  // second round.
  const std::size_t rounds = rounds_for(args.seconds, kConfigs, kOpSeconds);
  Samples case_s;
  Samples traced_s;
  LayerTable layers;
  std::vector<std::pair<std::size_t, Outcome>> outcomes;
  std::vector<double> energy_j(kConfigs, 0.0);
  reset_peak_rss();
  for (std::size_t op = 0; op < rounds * kConfigs; ++op) {
    const std::size_t k = op % kConfigs;
    const bool traced = args.trace && (op / kConfigs) % 2 == 1;
    report.attempt();
    try {
      sickle::obs::set_enabled(traced);
      Figures fig;
      const auto t0 = Clock::now();
      sickle::CaseReport r;
      {
        sickle::obs::Span span("bench.op", "bench");
        const RegistryDelta pool;
        r = curate(cfgs[k], store_path, fig);
        pool_figures(pool, fig);
      }
      (traced ? traced_s : case_s).add(seconds_between(t0, Clock::now()));
      sickle::obs::set_enabled(false);
      if (traced) layers.add(fig);
      outcomes.emplace_back(k, Outcome::of(r));
      energy_j[k] = r.total_kilojoules() * 1e3;
    } catch (const std::exception& e) {
      sickle::obs::set_enabled(false);
      report.fail(std::string("case error: ") + e.what());
    }
  }
  const double peak_mb = peak_rss_mb();
  std::filesystem::remove(store_path);

  // Reference: each config through run_case over the same series,
  // regenerated in memory (run_case spills it to its own SKL3 store).
  std::vector<Outcome> reference(kConfigs);
  std::vector<std::string> errors(kConfigs);
  try {
    const sickle::DatasetBundle series =
        sickle::make_dataset("SST-P1F4", kDatasetSeed, scale);
    parallel_for_each(kConfigs, kReferenceWorkers, [&](std::size_t k) {
      try {
        reference[k] = Outcome::of(
            sickle::run_case(series, curate_case(args, k).config()));
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  } catch (const std::exception& e) {
    errors.assign(kConfigs, e.what());
  }
  for (std::size_t k = 0; k < kConfigs; ++k) {
    if (!errors[k].empty()) {
      report.incorrect("reference run_case of config " + std::to_string(k) +
                       " failed: " + errors[k]);
    }
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& [k, got] = outcomes[i];
    if (errors[k].empty()) {
      report.check(got, reference[k], "operation " + std::to_string(i));
    }
  }

  if (!args.trace) {
    Samples loss, joules;
    for (std::size_t k = 0; k < kConfigs; ++k) {
      loss.add(reference[k].test_loss);
      joules.add(energy_j[k]);
    }
    report.median("setup_s", setup_s, "s");
    report.median("case_s", case_s, "s");
    report.set("peak_rss_mb", peak_mb, "MiB", 1);
    report.mean("test_loss", loss, "mse");
    report.mean("energy_j", joules, "J");
    report.set("store_mb", static_cast<double>(store_bytes) / (1 << 20), "MiB",
               1);
    return;
  }
  setup_layers.report(report);
  report_traced(report, layers, snapshot_ms, case_s, traced_s);
}

}  // namespace perfbench
