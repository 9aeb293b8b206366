// Workload ingest_stream: repeated run_case on scale-1 SST-P1F4 cases
// with streaming ingest into an SKL3 series (gorilla codec). Sampling is
// random, training is two epochs and temporal selection is off, so
// snapshot generation (flow/FFT) and the store write path dominate each
// case. Operations run whole rounds over kConfigs datasets, each with its
// own seed; test_loss, energy_j and store_mb are means over those configs.
// Every operation is checked against its config's reference, the same
// case composed from the stage calls after the timed rounds.
#include "obs/trace.hpp"
#include "stages.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 5;
constexpr std::size_t kConfigs = 4;
/// Rough wall time of one scale-1 operation, which sizes the rounds.
constexpr double kOpSeconds = 3.9;

CaseSpec ingest_case(const Args& args, std::size_t k, double scale) {
  std::string y;
  y += "shared:\n";
  y += "  dataset: SST-P1F4\n";
  y += "  scale: " + std::to_string(scale) + "\n";
  y += "  seed: " + std::to_string(derive_seed(args.seed, k)) + "\n";
  y += "subsample:\n";
  y += "  hypercubes: random\n";
  y += "  method: random\n";
  y += "  num_hypercubes: 128\n";
  y += "  num_samples: 16\n";
  y += "  nxsl: 8\n  nysl: 8\n  nzsl: 8\n";
  y += "  threads: 1\n";
  y += "store:\n";
  y += "  backend: series\n";
  y += "  ingest: streaming\n";
  y += "  codec: gorilla\n";
  y += "  chunk: 16\n";
  y += "  spill_dir: " + args.workdir + "/spill\n";
  y += "train:\n";
  y += "  arch: MLP_transformer\n";
  y += "  epochs: 2\n  batch: 8\n  dim: 16\n  heads: 2\n";
  // Half the examples are held out, so each config's test loss rests on
  // enough of them to be a stable figure.
  y += "  test_frac: 0.5\n";
  return CaseSpec{y};
}

sickle::CaseReport run_once(const CaseSpec& spec) {
  sickle::ProducerBundle bundle = spec.producer();
  return sickle::run_case(bundle, spec.config());
}

}  // namespace

void run_ingest_stream(const Args& args, Report& report) {
  const double scale = args.tiny ? 0.25 : 1.0;
  std::vector<CaseSpec> specs;
  for (std::size_t k = 0; k < kConfigs; ++k) {
    specs.push_back(ingest_case(args, k, scale));
  }

  // Set-up: parse the configs and run one case at half scale (an eighth
  // of the grid), which touches every code path (pool, codec, allocator)
  // without timing a full case. Repeated; the median is setup_s.
  Samples setup_s;
  const CaseSpec warm = ingest_case(args, kConfigs, args.tiny ? 0.25 : 0.5);
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    for (const CaseSpec& s : specs) (void)s.config();
    (void)run_once(warm);
    setup_s.add(seconds_between(t0, Clock::now()));
  }

  // Timed: whole rounds over the configs, each operation one run_case. A
  // traced run makes every second round the same configs composed from
  // the stage calls under tracing.
  const std::size_t rounds = rounds_for(args.seconds, kConfigs, kOpSeconds);
  Samples case_s;
  Samples traced_s;
  LayerTable layers;
  Samples snapshot_ms;
  std::vector<std::pair<std::size_t, Outcome>> outcomes;
  std::vector<double> energy_j(kConfigs, 0.0);
  std::vector<double> store_mb(kConfigs, 0.0);
  const std::string traced_path = args.workdir + "/traced.skl3";
  reset_peak_rss();
  for (std::size_t op = 0; op < rounds * kConfigs; ++op) {
    const std::size_t k = op % kConfigs;
    const bool traced = args.trace && (op / kConfigs) % 2 == 1;
    report.attempt();
    try {
      if (!traced) {
        const auto t0 = Clock::now();
        const sickle::CaseReport r = run_once(specs[k]);
        case_s.add(seconds_between(t0, Clock::now()));
        outcomes.emplace_back(k, Outcome::of(r));
        energy_j[k] = r.total_kilojoules() * 1e3;
        store_mb[k] = static_cast<double>(r.store_bytes) / (1 << 20);
      } else {
        sickle::obs::set_enabled(true);
        Figures fig;
        const auto t0 = Clock::now();
        const sickle::CaseReport r =
            compose_case(specs[k], traced_path, fig, snapshot_ms);
        traced_s.add(seconds_between(t0, Clock::now()));
        sickle::obs::set_enabled(false);
        layers.add(fig);
        outcomes.emplace_back(k, Outcome::of(r));
      }
    } catch (const std::exception& e) {
      sickle::obs::set_enabled(false);
      report.fail(std::string("case error: ") + e.what());
    }
  }
  const double peak_mb = peak_rss_mb();

  // Reference: each config composed from the stage calls, untraced and
  // apart from the timed operations, one config per thread.
  std::vector<Outcome> reference(kConfigs);
  std::vector<std::string> errors(kConfigs);
  parallel_for_each(kConfigs, kConfigs, [&](std::size_t k) {
    const std::string path =
        args.workdir + "/reference-" + std::to_string(k) + ".skl3";
    try {
      Figures fig;
      Samples ms;
      reference[k] = Outcome::of(compose_case(specs[k], path, fig, ms));
    } catch (const std::exception& e) {
      errors[k] = e.what();
    }
  });
  for (std::size_t k = 0; k < kConfigs; ++k) {
    if (!errors[k].empty()) {
      report.incorrect("reference of config " + std::to_string(k) +
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
    Samples loss, joules, mib;
    for (std::size_t k = 0; k < kConfigs; ++k) {
      loss.add(reference[k].test_loss);
      joules.add(energy_j[k]);
      mib.add(store_mb[k]);
    }
    report.median("setup_s", setup_s, "s");
    report.median("case_s", case_s, "s");
    report.set("peak_rss_mb", peak_mb, "MiB", 1);
    report.mean("test_loss", loss, "mse");
    report.mean("energy_j", joules, "J");
    report.mean("store_mb", mib, "MiB");
    return;
  }
  report_traced(report, layers, snapshot_ms, case_s, traced_s);
}

}  // namespace perfbench
