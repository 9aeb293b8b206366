#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/config.hpp"
#include "obs/trace.hpp"
#include "sickle/config_driver.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z & 0x7FFFFFFFull;
}

double Samples::median() const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Samples::mean() const {
  return v_.empty() ? 0.0
                    : std::accumulate(v_.begin(), v_.end(), 0.0) /
                          static_cast<double>(v_.size());
}

std::optional<double> Samples::percentile(double p) const {
  const std::size_t n = v_.size();
  if (n == 0) return std::nullopt;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank - 1, n - 1);
  if (n - 1 - idx < 10) return std::nullopt;
  return s[idx];
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  notes_[name] = Metric{value, unit, samples};
}

void Report::median(const std::string& name, const Samples& s,
                    const std::string& unit) {
  if (!s.empty()) set(name, s.median(), unit, s.size());
}

void Report::mean(const std::string& name, const Samples& s,
                  const std::string& unit) {
  if (!s.empty()) set(name, s.mean(), unit, s.size());
}

void Report::note_median(const std::string& name, const Samples& s,
                         const std::string& unit) {
  if (!s.empty()) note(name, s.median(), unit, s.size());
}

void Report::note_percentile(const std::string& name, const Samples& s,
                             double p, const std::string& unit) {
  if (const auto v = s.percentile(p)) note(name, *v, unit, s.size());
}

void Report::fail(const std::string& why) {
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAILED operation: %s\n", why.c_str());
}

void Report::check(const Outcome& got, const Outcome& want,
                   const std::string& op) {
  ++checked_;
  if (!(got == want)) {
    fail(op + " gave " + got.describe() + ", its reference gave " +
         want.describe());
  }
}

void Report::incorrect(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAILED check: %s\n", why.c_str());
}

namespace {

/// sample_hash as 16 hex digits, the form sickle-serve returns.
std::string hash_hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

int Report::emit() const {
  const bool ok = correct_ && failed_ == 0 && attempted_ > 0;
  const auto table = [](const char* title,
                        const std::map<std::string, Metric>& rows) {
    std::printf("%-28s %16s  %-6s %s\n", title, "value", "unit", "samples");
    for (const auto& [name, m] : rows) {
      std::printf("%-28s %16.6g  %-6s %zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  };
  table("metric", metrics_);
  if (!notes_.empty()) table("note (not in the result)", notes_);
  std::printf("attempted %zu, failed %zu, checked %zu\n", attempted_,
              failed_, checked_);
  std::string line = "{\"correct\": ";
  line += ok ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  if (!f) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the peak RSS; peak_rss_mb is the "
                 "process's lifetime peak\n");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::size_t rounds_for(double seconds, std::size_t configs,
                       double op_seconds) {
  const double r =
      std::floor(seconds / (static_cast<double>(configs) * op_seconds));
  return std::max<std::size_t>(2, static_cast<std::size_t>(r));
}

void parallel_for_each(std::size_t n, std::size_t workers,
                       const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < std::min(n, workers); ++w) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& t : threads) t.join();
}

sickle::CaseConfig CaseSpec::config() const {
  return sickle::case_from_config(sickle::Config::parse(yaml));
}

sickle::ProducerBundle CaseSpec::producer() const {
  const sickle::Config cfg = sickle::Config::parse(yaml);
  return sickle::make_dataset_producer(
      sickle::dataset_label_from_config(cfg),
      static_cast<std::uint64_t>(cfg.get_int("shared", "seed", 42)),
      sickle::dataset_scale_from_config(cfg));
}

Outcome Outcome::of(const sickle::CaseReport& r) {
  return Outcome{r.sample_hash, r.train.test_loss};
}

std::string Outcome::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "hash %s loss %.17g",
                hash_hex(sample_hash).c_str(), test_loss);
  return buf;
}

TraceSummary summarize_trace(const std::string& op_name) {
  const auto events = sickle::obs::Tracer::instance().events();
  std::map<std::uint64_t, double> child_ns;
  for (const auto& ev : events) {
    if (ev.parent != 0) child_ns[ev.parent] += static_cast<double>(ev.dur_ns);
  }
  TraceSummary out;
  for (const auto& ev : events) {
    const auto it = child_ns.find(ev.id);
    const double children = it == child_ns.end() ? 0.0 : it->second;
    const double self_ns =
        std::max(0.0, static_cast<double>(ev.dur_ns) - children);
    out.self_seconds[ev.name] += self_ns * 1e-9;
    if (op_name == ev.name && ev.dur_ns > 0) {
      out.unattributed.add(self_ns / static_cast<double>(ev.dur_ns));
    }
  }
  return out;
}

void print_self_times(const TraceSummary& ts) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, s] : ts.self_seconds) rows.emplace_back(s, name);
  std::sort(rows.rbegin(), rows.rend());
  double total = 0.0;
  for (const auto& r : rows) total += r.first;
  std::printf("%-28s %12s %7s\n", "span (self time)", "s", "share");
  for (std::size_t i = 0; i < rows.size() && i < 12; ++i) {
    std::printf("%-28s %12.4f %6.1f%%\n", rows[i].second.c_str(), rows[i].first,
                total > 0.0 ? 100.0 * rows[i].first / total : 0.0);
  }
}

}  // namespace perfbench
