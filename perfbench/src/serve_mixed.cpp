// Workload serve_mixed: independent users hitting sickle-serve. An
// in-process serve::Server runs 3 case runners (threads: 1 each, shared
// block cache on) and receives the tiny bench_serve_load case over its
// NDJSON protocol (held-out share raised to one half, see case_yaml).
// Three of every four cases reuse one of 3 recurring
// seeds, so a series or block cache has repeated work to find; every
// fourth uses a seed that never repeats, where no cache can help.
//
// The run is kWindows windows, each an open-loop phase and then a
// closed-loop phase. Open loop: cases arrive on a fixed schedule at kRate
// per second regardless of completions; a poller tracks each with
// `status` every kPoll and scrapes `metrics` every kScrapeEveryPolls
// polls. Latency runs from the scheduled send to the poll that saw it
// finish; its median is this workload's case_s. Closed loop: one
// connection per CPU (at most 4) each keeps one case outstanding with
// submit + result; completions per second is the saturation throughput,
// printed as a note with the p90 latency and the status round trip. Each
// serving figure is the median of its per-window figures, so a host stall
// that hits one window (the host this was written on stalls for seconds
// at a time) does not move it.
//
// Every case's sample_hash and test_loss are compared with a serial
// run_case of the same config after the timed phases. A traced run
// composes the first kComposedRefs fresh seeds' references from the stage
// calls instead, under the layer spans: they give this workload's
// per-layer figures, and the check that they equal the served run_case.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "stages.hpp"

namespace perfbench {

namespace {

using sickle::serve::Json;
using namespace std::chrono_literals;

constexpr std::size_t kRunners = 3;
constexpr std::size_t kRecurringSeeds = 3;
constexpr std::size_t kUniqueEvery = 4;  // every 4th case: a fresh seed
/// Open-loop arrival rate, cases/s: about half the closed-loop capacity
/// measured on the commit that introduced this benchmark.
constexpr double kRate = 20.0;
constexpr auto kPoll = 2ms;
constexpr std::size_t kScrapeEveryPolls = 50;  // 100 ms
constexpr std::size_t kWindows = 3;
/// Share of a window in open loop, the rest closed loop: at 20 s a run,
/// each open-loop phase has the 100 cases a p90 needs.
constexpr double kOpenShare = 0.75;
constexpr int kSetupReps = 5;
/// References a traced run composes from the stage calls, one at a time.
constexpr std::size_t kComposedRefs = 8;

std::string case_yaml(std::uint64_t seed, const std::string& spill_dir) {
  std::string y;
  y += "shared:\n";
  y += "  dataset: SST-P1F4\n";
  y += "  scale: 0.25\n";
  y += "  seed: " + std::to_string(seed) + "\n";
  y += "subsample:\n";
  y += "  hypercubes: random\n";
  y += "  method: maxent\n";
  y += "  num_hypercubes: 2\n";
  y += "  num_samples: 17\n";
  y += "  num_clusters: 3\n";
  y += "  nxsl: 8\n  nysl: 8\n  nzsl: 8\n";
  y += "store:\n";
  y += "  backend: series\n";
  y += "  ingest: streaming\n";
  y += "  codec: delta\n";
  y += "  chunk: 16\n";
  y += "  write_budget_mb: 1\n";
  y += "  spill_dir: " + spill_dir + "\n";
  y += "train:\n";
  y += "  arch: MLP_transformer\n";
  y += "  epochs: 1\n  batch: 4\n  dim: 8\n  heads: 2\n";
  // Half the examples are held out, so each config's test loss rests on
  // more than one or two of them.
  y += "  test_frac: 0.5\n";
  return y;
}

/// Client connections and threads the load generator holds open, to
/// keep it within its budget of one per CPU, and the errors its threads
/// ended with.
struct Budget {
  std::atomic<int> connections{0};
  std::atomic<int> max_connections{0};
  std::atomic<int> threads{0};
  std::atomic<int> max_threads{0};
  std::mutex mu;
  std::vector<std::string> errors;  // guarded by mu

  static void bump(std::atomic<int>& cur, std::atomic<int>& max, int d) {
    const int now = cur.fetch_add(d) + d;
    int seen = max.load();
    while (now > seen && !max.compare_exchange_weak(seen, now)) {
    }
  }
};

/// Blocking NDJSON client on one persistent connection.
class Client {
 public:
  Client(std::uint16_t port, Budget& budget) : budget_(budget) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to sickle-serve");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Budget::bump(budget_.connections, budget_.max_connections, 1);
  }
  ~Client() {
    ::close(fd_);
    Budget::bump(budget_.connections, budget_.max_connections, -1);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One request line, one parsed response line.
  Json call(const Json& request) {
    std::string framed = request.dump();
    framed.push_back('\n');
    for (std::size_t off = 0; off < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("sickle-serve connection lost");
      off += static_cast<std::size_t>(n);
    }
    std::size_t nl = buf_.find('\n');
    while (nl == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("sickle-serve connection lost");
      buf_.append(chunk, static_cast<std::size_t>(n));
      nl = buf_.find('\n');
    }
    const std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return Json::parse(line);
  }

 private:
  Budget& budget_;
  int fd_ = -1;
  std::string buf_;
};

/// A load-generator thread, counted against the budget while it runs. An
/// exception ends the thread and is recorded as a failed operation.
std::thread budget_thread(Budget& budget, std::function<void()> fn) {
  return std::thread([&budget, fn = std::move(fn)] {
    Budget::bump(budget.threads, budget.max_threads, 1);
    try {
      fn();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(budget.mu);
      budget.errors.emplace_back(e.what());
    }
    Budget::bump(budget.threads, budget.max_threads, -1);
  });
}

Json verb(const char* name) {
  Json j = Json::object();
  j.set("verb", name);
  return j;
}

Json with_id(const char* name, double id) {
  Json j = verb(name);
  j.set("id", id);
  return j;
}

bool ok(const Json& resp) {
  const Json* v = resp.get("ok");
  return v != nullptr && v->type() == Json::Type::kBool && v->as_bool();
}

double number_field(const Json& j, const char* key) {
  const Json* v = j.get(key);
  return v != nullptr && v->type() == Json::Type::kNumber ? v->as_number()
                                                          : 0.0;
}

std::string string_field(const Json& j, const char* key) {
  const Json* v = j.get(key);
  return v != nullptr && v->type() == Json::Type::kString ? v->as_string()
                                                          : std::string();
}

/// One submitted case and what was observed of it.
struct Tracked {
  std::uint64_t seed = 0;
  double id = -1;
  Clock::time_point due;
  Clock::time_point seen_done;
  bool finished = false;
  bool open_loop = false;
  std::size_t window = 0;
  bool traced = false;  // closed loop of a traced run, with tracing on
};

/// The case's seed for arrival i: recurring seeds round robin, and every
/// kUniqueEvery-th arrival a seed no other case in the run uses. The open
/// and the closed loop draw from lanes of their own, so the seeds the open
/// loop runs (and with them test_loss, energy_j and store_mb) follow from
/// the run seed alone, however many cases the closed loop completes.
class SeedPlan {
 public:
  SeedPlan(std::uint64_t seed, std::uint64_t lane)
      : seed_(seed), fresh_stream_((lane + 1) << 32) {
    for (std::size_t k = 0; k < kRecurringSeeds; ++k) {
      recurring_.push_back(derive_seed(seed, 100 + k));
    }
  }
  [[nodiscard]] const std::vector<std::uint64_t>& recurring() const {
    return recurring_;
  }
  std::uint64_t next() {
    const std::size_t i = n_++;
    if (i % kUniqueEvery == kUniqueEvery - 1) {
      for (;;) {
        const std::uint64_t s = derive_seed(seed_, fresh_stream_ + unique_++);
        if (std::find(recurring_.begin(), recurring_.end(), s) ==
            recurring_.end()) {
          return s;
        }
      }
    }
    return recurring_[(i - i / kUniqueEvery) % kRecurringSeeds];
  }

 private:
  std::uint64_t seed_;
  std::uint64_t fresh_stream_;
  std::vector<std::uint64_t> recurring_;
  std::size_t n_ = 0;
  std::uint64_t unique_ = 0;
};

Json submit_request(std::uint64_t seed, const std::string& spill) {
  Json req = verb("submit");
  req.set("config", case_yaml(seed, spill));
  return req;
}

/// The reference outcome of one seed's case, with the deterministic
/// figures of that case.
struct Reference {
  Outcome outcome;
  double energy_j = 0.0;
  double store_mb = 0.0;

  explicit Reference(const sickle::CaseReport& r = {})
      : outcome(Outcome::of(r)),
        energy_j(r.total_kilojoules() * 1e3),
        store_mb(static_cast<double>(r.store_bytes) / (1 << 20)) {}
};

/// Serial run_case of the case with this seed.
Reference reference(std::uint64_t seed, const std::string& spill) {
  const CaseSpec spec{case_yaml(seed, spill)};
  sickle::ProducerBundle bundle = spec.producer();
  return Reference(sickle::run_case(bundle, spec.config()));
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report) {
  const std::string spill = args.workdir + "/spill";
  const std::size_t cpus =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const std::size_t closed_clients = std::min<std::size_t>(4, cpus);
  Budget budget;
  SeedPlan open_plan(args.seed, 0);
  SeedPlan closed_plan(args.seed, 1);

  // Set-up: start the daemon, compute the recurring seeds' reference
  // outcomes, and push one case through it. Repeated; the last daemon
  // serves the run.
  Samples setup_s;
  std::unique_ptr<sickle::serve::Server> server;
  std::map<std::uint64_t, Reference> expected;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    if (server) server->stop();
    sickle::serve::ServeOptions opts;
    opts.session.max_concurrent_cases = kRunners;
    opts.session.queue_capacity = 256;
    opts.session.shared_block_cache = true;
    server = std::make_unique<sickle::serve::Server>(opts);
    server->start();
    for (const std::uint64_t s : open_plan.recurring()) {
      expected[s] = reference(s, spill);
    }
    Client warm(server->port(), budget);
    const Json sub = warm.call(submit_request(open_plan.recurring()[0], spill));
    if (!ok(sub)) throw std::runtime_error("warm-up submit refused");
    (void)warm.call(with_id("result", number_field(sub, "id")));
    setup_s.add(seconds_between(t0, Clock::now()));
  }
  const std::uint16_t port = server->port();

  std::mutex mu;  // guards `cases` and the figures filled by the threads
  std::vector<Tracked> cases;
  std::vector<Samples> status_ms(kWindows);
  Samples late_ms, submit_ms, metrics_ms, cases_per_s;
  double queued_max = 0.0;
  std::size_t refused = 0;
  std::size_t poll_failures = 0;
  std::size_t completed = 0;
  std::vector<double> cache_first, cache_last;  // shared-cache hits, misses
  const double window_s = args.seconds / static_cast<double>(kWindows);
  const double open_s = window_s * kOpenShare;
  const double closed_s = window_s - open_s;
  const auto n_open =
      static_cast<std::size_t>(std::max(1L, std::lround(open_s * kRate)));

  auto run_open = [&](std::size_t w) {
    const auto p1 = Clock::now() + 20ms;
    std::atomic<bool> sending{true};
    std::thread sender = budget_thread(budget, [&] {
      struct Done {
        std::atomic<bool>& flag;
        ~Done() { flag = false; }
      } done{sending};
      Client c(port, budget);
      for (std::size_t i = 0; i < n_open; ++i) {
        const auto due = p1 + seconds(static_cast<double>(i) / kRate);
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        Tracked t;
        t.open_loop = true;
        t.window = w;
        t.due = due;
        t.seed = open_plan.next();  // this thread's alone
        Json resp;
        {
          sickle::obs::Span span("serve.submit", "serve");
          resp = c.call(submit_request(t.seed, spill));
        }
        const auto back = Clock::now();
        std::lock_guard<std::mutex> lk(mu);
        late_ms.add(seconds_between(due, sent) * 1e3);
        submit_ms.add(seconds_between(sent, back) * 1e3);
        if (!ok(resp)) {
          ++refused;
          t.finished = true;
        } else {
          t.id = number_field(resp, "id");
        }
        cases.push_back(t);
      }
    });
    std::thread poller = budget_thread(budget, [&] {
      Client c(port, budget);
      const auto drain_deadline = p1 + seconds(open_s) + 30s;
      auto tick = p1;
      for (std::size_t n = 0;; ++n) {
        tick += kPoll;
        std::this_thread::sleep_until(tick);
        std::vector<std::pair<std::size_t, double>> open;
        bool done_sending = false;
        {
          std::lock_guard<std::mutex> lk(mu);
          for (std::size_t i = 0; i < cases.size(); ++i) {
            if (!cases[i].finished) open.emplace_back(i, cases[i].id);
          }
          done_sending = !sending;
        }
        if (n % kScrapeEveryPolls == 0 || (done_sending && open.empty())) {
          const auto t0 = Clock::now();
          Json m;
          {
            sickle::obs::Span span("serve.metrics", "serve");
            m = c.call(verb("metrics"));
          }
          const double rtt = seconds_between(t0, Clock::now()) * 1e3;
          const Json* mm = m.get("metrics");
          std::lock_guard<std::mutex> lk(mu);
          metrics_ms.add(rtt);
          if (mm != nullptr) {
            queued_max = std::max(queued_max,
                                  number_field(*mm, "serve.cases_queued"));
            std::vector<double> hm = {
                number_field(*mm, "serve.shared_cache.hits"),
                number_field(*mm, "serve.shared_cache.misses")};
            if (cache_first.empty()) cache_first = hm;
            cache_last = hm;
          }
        }
        if (done_sending && open.empty()) return;
        if (Clock::now() > drain_deadline) {
          std::lock_guard<std::mutex> lk(mu);
          poll_failures += open.size();
          for (const auto& [i, id] : open) cases[i].finished = true;
          return;
        }
        for (const auto& [i, id] : open) {
          const auto t0 = Clock::now();
          Json st;
          {
            sickle::obs::Span span("serve.status", "serve");
            st = c.call(with_id("status", id));
          }
          const auto t1 = Clock::now();
          const std::string state = string_field(st, "state");
          std::lock_guard<std::mutex> lk(mu);
          status_ms[w].add(seconds_between(t0, t1) * 1e3);
          if (state == "done" || state == "failed" || state == "cancelled") {
            cases[i].finished = true;
            cases[i].seen_done = t1;
          }
        }
      }
    });
    sender.join();
    poller.join();
  };

  // Completions per second of one closed-loop phase: each connection's
  // completed cases over the time from the phase's start to its last
  // completion, summed over the connections. Counting whole cases per
  // connection leaves out the cases cut off at the phase's end.
  auto run_closed = [&](bool traced) {
    sickle::obs::set_enabled(traced);
    double rate = 0.0;  // guarded by mu
    const auto w0 = Clock::now();
    const auto w1 = w0 + seconds(closed_s);
    std::vector<std::thread> clients;
    for (std::size_t k = 0; k < closed_clients; ++k) {
      clients.push_back(budget_thread(budget, [&] {
        Client c(port, budget);
        std::size_t done = 0;
        Clock::time_point last = w0;
        while (Clock::now() < w1) {
          Tracked t;
          t.traced = traced;
          {
            std::lock_guard<std::mutex> lk(mu);
            t.seed = closed_plan.next();
          }
          t.due = Clock::now();
          const Json sub = c.call(submit_request(t.seed, spill));
          if (!ok(sub)) {
            t.finished = true;
            std::lock_guard<std::mutex> lk(mu);
            ++refused;
            cases.push_back(t);
            continue;
          }
          t.id = number_field(sub, "id");
          (void)c.call(with_id("result", t.id));
          t.seen_done = Clock::now();
          t.finished = true;
          ++done;
          last = t.seen_done;
          std::lock_guard<std::mutex> lk(mu);
          cases.push_back(t);
        }
        std::lock_guard<std::mutex> lk(mu);
        completed += done;
        if (done > 0) {
          rate += static_cast<double>(done) / seconds_between(w0, last);
        }
      }));
    }
    for (auto& th : clients) th.join();
    cases_per_s.add(rate);
  };

  reset_peak_rss();
  for (std::size_t w = 0; w < kWindows; ++w) {
    sickle::obs::set_enabled(args.trace);
    run_open(w);
    // A traced run leaves every second closed-loop phase untraced, which
    // gives the tracing overhead.
    run_closed(args.trace && w % 2 == 0);
  }
  sickle::obs::set_enabled(false);
  const double peak_mb = peak_rss_mb();
  for (std::size_t i = 0; i < poll_failures; ++i) {
    report.fail("case not finished 30 s after its open-loop phase");
  }

  // ---- Checks: every case against a serial run_case of its config.
  report.attempt(cases.size());
  for (const std::string& e : budget.errors) {
    report.fail("load generator: " + e);
  }
  for (std::size_t i = 0; i < refused; ++i) report.fail("submit refused");
  std::set<std::uint64_t> open_seeds;
  for (const Tracked& t : cases) {
    if (t.open_loop) open_seeds.insert(t.seed);
  }
  LayerTable layers;
  Samples snapshot_ms;
  {
    std::vector<std::uint64_t> todo;
    for (const Tracked& t : cases) {
      if (expected.count(t.seed) == 0 &&
          std::find(todo.begin(), todo.end(), t.seed) == todo.end()) {
        todo.push_back(t.seed);
      }
    }
    std::vector<Reference> got(todo.size());
    std::vector<std::string> errors(todo.size());
    const std::size_t composed =
        args.trace ? std::min(kComposedRefs, todo.size()) : 0;
    for (std::size_t j = 0; j < composed; ++j) {
      const std::string path = args.workdir + "/composed.skl3";
      sickle::obs::set_enabled(true);
      try {
        Figures fig;
        got[j] = Reference(compose_case(CaseSpec{case_yaml(todo[j], spill)},
                                        path, fig, snapshot_ms));
        layers.add(fig);
      } catch (const std::exception& e) {
        errors[j] = e.what();
      }
      sickle::obs::set_enabled(false);
    }
    parallel_for_each(todo.size() - composed, std::min<std::size_t>(cpus, 4),
                      [&](std::size_t i) {
                        const std::size_t j = composed + i;
                        try {
                          got[j] = reference(todo[j], spill);
                        } catch (const std::exception& e) {
                          errors[j] = e.what();
                        }
                      });
    for (std::size_t j = 0; j < todo.size(); ++j) {
      if (!errors[j].empty()) {
        report.incorrect("reference of seed " + std::to_string(todo[j]) +
                         " failed: " + errors[j]);
        continue;
      }
      expected[todo[j]] = got[j];
    }
  }
  std::vector<Samples> latency_ms(kWindows);
  Samples run_ms, run_ms_untraced, run_ms_traced, wait_ms,
      ingest_share;
  {
    Client c(port, budget);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Tracked& t = cases[i];
      if (t.id < 0) continue;  // refused, already counted
      const Json r = c.call(with_id("result", t.id));
      if (!ok(r)) {
        report.fail("case " + std::to_string(static_cast<long>(t.id)) +
                    " failed: " + string_field(r, "error"));
        continue;
      }
      const auto want = expected.find(t.seed);
      if (want == expected.end()) continue;  // no reference, run incorrect
      const Outcome o{std::stoull(string_field(r, "sample_hash"), nullptr, 16),
                      number_field(r, "test_loss")};
      report.check(o, want->second.outcome,
                   "case " + std::to_string(static_cast<long>(t.id)));
      if (!(o == want->second.outcome)) continue;
      const Json* m = r.get("metrics");
      const double ingest = m ? number_field(*m, "case.ingest_seconds") : 0.0;
      const double run =
          ingest + (m ? number_field(*m, "case.selection_seconds") +
                            number_field(*m, "case.sampling_seconds") +
                            number_field(*m, "case.training_seconds")
                      : 0.0);
      if (t.open_loop) {
        const double lat = seconds_between(t.due, t.seen_done);
        latency_ms[t.window].add(lat * 1e3);
        run_ms.add(run * 1e3);
        wait_ms.add((lat - run) * 1e3);
        if (run > 0.0) ingest_share.add(ingest / run);
      } else {
        (t.traced ? run_ms_traced : run_ms_untraced).add(run * 1e3);
      }
    }
  }
  server->stop();

  const int max_conn = budget.max_connections.load();
  const int max_threads = budget.max_threads.load();
  std::printf("load generator: at most %d connections and %d threads "
              "(budget %zu)\n",
              max_conn, max_threads, cpus);
  if (static_cast<std::size_t>(max_conn) > cpus ||
      static_cast<std::size_t>(max_threads) > cpus) {
    report.incorrect("load generator exceeded its connection/thread budget");
  }
  std::printf("%zu windows; open loop: %zu cases each at %.1f/s; closed "
              "loop: %zu clients\n",
              kWindows, n_open, kRate, closed_clients);

  if (!args.trace) {
    // Per-window figures; each is the median over the windows, reported
    // only when every window has one.
    Samples p50_s, p90, status_p50;
    std::size_t n_latency = 0;
    std::size_t n_status = 0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      n_latency += latency_ms[w].size();
      n_status += status_ms[w].size();
      if (!latency_ms[w].empty()) p50_s.add(latency_ms[w].median() * 1e-3);
      if (const auto v = latency_ms[w].percentile(0.9)) p90.add(*v);
      if (!status_ms[w].empty()) status_p50.add(status_ms[w].median());
      std::printf("window %zu: serve p50 %.3f ms, status p50 %.4f ms, "
                  "%.2f cases/s\n",
                  w, latency_ms[w].median(), status_ms[w].median(),
                  cases_per_s.values()[w]);
    }
    const bool all_windows = [&] {
      for (const Samples& l : latency_ms) {
        if (l.empty()) return false;
      }
      return true;
    }();
    if (all_windows) report.set("case_s", p50_s.median(), "s", n_latency);
    const auto note_windows = [&](const char* name, const Samples& s,
                                  const char* unit, std::size_t samples) {
      if (s.size() == kWindows) report.note(name, s.median(), unit, samples);
    };
    note_windows("serve_p90_ms", p90, "ms", n_latency);
    note_windows("status_p50_ms", status_p50, "ms", n_status);
    note_windows("serve_cases_per_s", cases_per_s, "1/s", completed);
    report.median("setup_s", setup_s, "s");
    report.set("peak_rss_mb", peak_mb, "MiB", 1);
    // Deterministic: the distinct configs of the open-loop phases follow
    // from the seed alone.
    Samples loss, joules, mib;
    for (const std::uint64_t s : open_seeds) {
      const auto ref = expected.find(s);
      if (ref == expected.end()) continue;  // no reference, run incorrect
      loss.add(ref->second.outcome.test_loss);
      joules.add(ref->second.energy_j);
      mib.add(ref->second.store_mb);
    }
    report.mean("test_loss", loss, "mse");
    report.mean("energy_j", joules, "J");
    report.mean("store_mb", mib, "MiB");
    return;
  }
  // Layers below the daemon, from the composed references; the daemon's
  // own figures are notes.
  layers.report(report);
  report.median("flow.snapshot_ms", snapshot_ms, "ms");
  const TraceSummary ts = summarize_trace("case.run");
  report.median("trace.unattributed_frac", ts.unattributed, "ratio");
  if (!run_ms_untraced.empty() && !run_ms_traced.empty()) {
    report.set("trace.overhead_frac",
               run_ms_traced.median() / run_ms_untraced.median() - 1.0,
               "ratio", run_ms_traced.size());
  }
  report.note_median("session.run_ms", run_ms, "ms");
  report.note_median("session.wait_p50_ms", wait_ms, "ms");
  report.note_percentile("session.wait_p90_ms", wait_ms, 0.9, "ms");
  report.note_median("session.ingest_share", ingest_share, "ratio");
  report.note("session.queued_max", queued_max, "count", metrics_ms.size());
  if (cache_first.size() == 2 && cache_last.size() == 2) {
    const double hits = cache_last[0] - cache_first[0];
    const double lookups = hits + cache_last[1] - cache_first[1];
    report.note("session.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                "ratio", metrics_ms.size());
  }
  report.note_median("serve.submit_ms", submit_ms, "ms");
  report.note_median("serve.metrics_ms", metrics_ms, "ms");
  report.note("serve.refused", static_cast<double>(refused), "count",
              cases.size());
  report.note_percentile("load.late_ms", late_ms, 0.9, "ms");
}

}  // namespace perfbench
