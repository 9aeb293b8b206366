// perfbench — the SICKLE end-to-end benchmark program. One process runs
// one workload for a fixed time, checks every output, and prints the
// result as its last stdout line. run.py builds it and is the entry point:
//
//   perfbench --workload <ingest_stream|curate_stored|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--tiny]
//
// With --trace 1 it reports per-layer figures instead of the end-to-end
// ones and writes <workdir>/trace.json (Chrome trace-event format).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--tiny]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workdir.empty()) usage("--workdir is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  std::filesystem::create_directories(args.workdir + "/spill");
  perfbench::Report report;
  try {
    if (args.workload == "ingest_stream") {
      perfbench::run_ingest_stream(args, report);
    } else if (args.workload == "curate_stored") {
      perfbench::run_curate_stored(args, report);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_mixed(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
    if (args.trace) {
      sickle::obs::Tracer::instance().write_chrome_trace(args.workdir +
                                                         "/trace.json");
      perfbench::print_self_times(perfbench::summarize_trace(""));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return report.emit();
}
