// Shared pieces of the SICKLE benchmark program: command-line arguments,
// sample statistics with the percentile rule, the result line, case
// configs built from the workload seed, and trace summaries.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sickle/case.hpp"
#include "sickle/dataset_zoo.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Runs the scale-1 cases at scale 0.25 so the benchmark's own tests
  /// take seconds; the figures are then not comparable with full runs.
  bool tiny = false;
  /// Scratch directory inside the checkout: spills, the store, the trace.
  std::string workdir;
};

/// Deterministic 31-bit value derived from the run seed and a stream
/// index (splitmix64), so every input a workload generates follows from
/// --seed alone and fits the YAML integer reader.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// A set of observations of one quantity.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return v_;
  }
  [[nodiscard]] double median() const;
  [[nodiscard]] double mean() const;
  /// The p-quantile (0 < p < 1, nearest rank), or nullopt unless at least
  /// ten samples lie beyond it: a tail figure resting on fewer than ten
  /// observations is not reported at all.
  [[nodiscard]] std::optional<double> percentile(double p) const;

 private:
  std::vector<double> v_;
};

/// The observable outcome of one case, compared bit for bit: what
/// sickle-serve returns and what the bit-identity matrix pins.
struct Outcome {
  std::uint64_t sample_hash = 0;
  double test_loss = 0.0;

  [[nodiscard]] static Outcome of(const sickle::CaseReport& r);
  [[nodiscard]] bool operator==(const Outcome& o) const {
    return sample_hash == o.sample_hash && test_loss == o.test_loss;
  }
  [[nodiscard]] std::string describe() const;
};

/// The run's result: metrics with unit and sample count, and the
/// attempted/failed/checked operation tally. emit() prints a readable table and
/// then the one-line JSON result as the last line of stdout. The result
/// line holds exactly the metrics BENCHMARK.json lists for the mode, which
/// every workload measures; figures only one workload has are notes,
/// printed in the table but left out of the result line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// A workload-specific figure: in the table, not in the result line.
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  /// Median of `s`; omitted when `s` is empty.
  void median(const std::string& name, const Samples& s,
              const std::string& unit);
  /// Mean of `s`; omitted when `s` is empty.
  void mean(const std::string& name, const Samples& s,
            const std::string& unit);
  /// Median and p-quantile of `s` as notes; the p-quantile is omitted
  /// under the ten-beyond rule.
  void note_median(const std::string& name, const Samples& s,
                   const std::string& unit);
  void note_percentile(const std::string& name, const Samples& s, double p,
                       const std::string& unit);

  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);
  /// Compare one operation's outcome with its reference, computed apart
  /// from it: counted as checked, and as failed when they differ.
  void check(const Outcome& got, const Outcome& want, const std::string& op);
  /// A check outside any counted operation failed: the run is incorrect.
  void incorrect(const std::string& why);

  /// Print and return the process exit code (0 only when correct).
  int emit() const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checked_ = 0;
  bool correct_ = true;
};

/// Start a new peak-memory window: the kernel lowers this process's
/// peak resident set to its current one (/proc/self/clear_refs). Where
/// that is refused, says so on stderr, and peak_rss_mb() is the lifetime
/// peak.
void reset_peak_rss();
/// Peak resident set of this process since reset_peak_rss(), MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Whole rounds over `configs` operations that fit in `seconds` when one
/// operation takes `op_seconds`, at least two so every config repeats.
/// `op_seconds` is a fixed estimate, never a measurement, so both sides of
/// a comparison time the same operations.
[[nodiscard]] std::size_t rounds_for(double seconds, std::size_t configs,
                                     double op_seconds);

/// Call fn(i) for every i in [0, n) on up to `workers` threads; fn must
/// not throw.
void parallel_for_each(std::size_t n, std::size_t workers,
                       const std::function<void(std::size_t)>& fn);

/// One case as the benchmark hands it to SICKLE: inline YAML parsed by
/// the public config driver, exactly what a sickle-serve client submits.
struct CaseSpec {
  std::string yaml;

  [[nodiscard]] sickle::CaseConfig config() const;
  [[nodiscard]] sickle::ProducerBundle producer() const;
};

/// Self time per span name (span minus its direct children) and the
/// share of each `op_name` span that no child span covers, over every
/// event buffered so far.
struct TraceSummary {
  std::map<std::string, double> self_seconds;
  Samples unattributed;
};
[[nodiscard]] TraceSummary summarize_trace(const std::string& op_name);
/// Print the spans with the most self time, largest first.
void print_self_times(const TraceSummary& ts);

void run_ingest_stream(const Args& args, Report& report);
void run_curate_stored(const Args& args, Report& report);
void run_serve_mixed(const Args& args, Report& report);

}  // namespace perfbench
