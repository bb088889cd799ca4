// perfbench: the service benchmark's driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH/pmonge-serve [--git DESCRIBE] [--spans PATH]
//
// Starts pmonge-serve --listen, sets it up several times (setup_s is the
// median), drives the measured phases over four connections from this
// one thread, checks every answer, and prints one line per metric
// followed by a provenance record and, last, the result object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// traffic and reports the per-layer metrics (layers.hpp) instead.
#include <sys/utsname.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver.hpp"
#include "layers.hpp"
#include "sched.hpp"
#include "serve/json.hpp"
#include "statsdelta.hpp"
#include "support/build_info.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using pmonge::serve::Json;

constexpr std::size_t kConns = 4;
constexpr int kSetups = 8;
// A measurement is invalid when the driver fell behind its open-loop
// schedule: it started sessions at less than this share of the intended
// rate, or its median lateness exceeds this.
constexpr double kMinRateFrac = 0.97;
constexpr double kMaxLagP50Us = 1000;
constexpr int kAttempts = 2;
// p50_us: the open loop's requests, in order, cut into up to
// kLatencyChunks chunks of at least kLatencyMinChunk; each chunk's
// median; then this quantile over chunks (sched.hpp).
constexpr double kLatencyChunkQ = 0.1;
constexpr std::size_t kLatencyMinChunk = 300, kLatencyChunks = 16;
// With PhasePlan::rotate_cpus, the server's event-loop thread moves to
// the next CPU this often during the closed loop.
constexpr std::int64_t kRotateNs = 100'000'000;

struct Args {
  std::string workload, server, git = "unknown", spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --server PATH [--git DESC] "
               "[--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--server") a.server = v;
      else if (k == "--git") a.git = v;
      else if (k == "--spans") a.spans = v;
      else usage("unknown flag " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.server.empty()) usage("--server is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

class DriverLink : public Link {
 public:
  explicit DriverLink(Driver& d) : d_(d) {}
  std::string request(std::string_view line) override {
    return d_.request(0, line);
  }
  std::vector<std::string> pipeline(
      const std::vector<std::string>& lines) override {
    return d_.pipeline(lines);
  }

 private:
  Driver& d_;
};

struct Tally {
  std::size_t attempted = 0, failures = 0, unexpected = 0, correct = 0;
  std::vector<Verdict> verdicts;  // per record (one phase's tally only)
  std::map<Verdict, std::size_t> by_verdict;
  std::vector<std::string> examples;  // first few unexpected outcomes

  void add(const Tally& t) {
    attempted += t.attempted;
    failures += t.failures;
    unexpected += t.unexpected;
    correct += t.correct;
    for (const auto& [v, c] : t.by_verdict) by_verdict[v] += c;
    for (const auto& e : t.examples) {
      if (examples.size() < 3) examples.push_back(e);
    }
  }
};

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::ExpectedReject: return "expected_reject";
    case Verdict::DefectWrong: return "defect_wrong";
    case Verdict::Wrong: return "wrong";
    case Verdict::Rejected: return "rejected";
    case Verdict::Error: return "error";
  }
  return "?";
}

// Checks every answered request of `ph` against the oracle on up to
// kConns threads; unanswered requests are transport failures.
Tally check_phase(const Workload& wl, const Phase& ph) {
  std::vector<Verdict> v(ph.recs.size(), Verdict::Ok);
  std::vector<std::thread> pool;
  const std::size_t n = ph.recs.size();
  for (std::size_t w = 0; w < kConns; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += kConns) {
        const Record& r = ph.recs[i];
        v[i] = r.recv_ns < 0 ? Verdict::Error : wl.check(r.tag, ph.response(r));
      }
    });
  }
  for (auto& t : pool) t.join();
  Tally t;
  t.attempted = n;
  t.verdicts = v;
  for (std::size_t i = 0; i < n; ++i) {
    ++t.by_verdict[v[i]];
    if (is_failure(v[i])) ++t.failures;
    if (!is_failure(v[i])) ++t.correct;
    if (is_unexpected(v[i])) {
      ++t.unexpected;
      if (t.examples.size() < 3) {
        const Record& r = ph.recs[i];
        t.examples.push_back(std::string(verdict_name(v[i])) + ": " +
                             wl.line_of(r.tag).substr(0, 160) + " -> " +
                             std::string(ph.response(r).substr(0, 200)));
      }
    }
  }
  return t;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl = Workload::make(args.workload);
  if (!wl) usage("unknown workload \"" + args.workload + "\"");
  wl->prepare(args.seed, args.seconds);
  const PhasePlan plan = wl->plan();
  const std::vector<std::string> server_flags;

  // With plan.rotate_cpus the server's event-loop thread takes each CPU
  // in turn: set-up k runs on CPU k mod n, the closed loop moves it
  // every kRotateNs.  The driver keeps off that CPU.
  const std::vector<int> cpus = allowed_cpus();
  const bool rotate = plan.rotate_cpus && cpus.size() > 1;
  const auto confine = [&](ServerProcess& s, int cpu) {
    s.confine(cpu, cpus);
    confine_self_away_from(cpu, cpus);
  };

  // Set-up, several times on fresh servers; the last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Driver> drv;
  for (int k = 0; k < kSetups; ++k) {
    drv.reset();
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(args.server, server_flags);
    if (rotate) confine(*server, cpus[static_cast<std::size_t>(k) % cpus.size()]);
    drv = std::make_unique<Driver>(connect_all(server->port(), kConns));
    DriverLink link(*drv);
    wl->setup(link);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  if (rotate) confine(*server, -1);

  const auto stats = [&] {
    return parse_stats(drv->request(0, "{\"op\":\"stats\"}"));
  };

  // One measurement: the closed loop, then (unless the workload is a
  // fixed list) the open loop.  Empty when the driver fell behind.
  struct Attempt {
    std::vector<Phase> phases;
    std::vector<Tally> tallies;  // per phase
    RunFacts facts;
    double closed_cpu_us = 0;  // server CPU time during the closed loop
  };
  const auto measure = [&](Attempt& at) {
    at.facts.before = stats();
    std::size_t turn = 0;
    if (rotate) {
      drv->set_tick(kRotateNs, [&] {
        confine(*server, cpus[turn++ % cpus.size()]);
      });
    }
    const double cpu0 = server->cpu_us();
    at.phases.push_back(drv->closed(
        *wl, plan.closed_window,
        plan.fixed_list ? 0 : args.seconds * plan.closed_share));
    at.closed_cpu_us = server->cpu_us() - cpu0;
    if (rotate) {
      drv->set_tick(0, nullptr);
      confine(*server, -1);
    }
    at.facts.after_capacity = stats();
    if (!plan.fixed_list) {
      const auto schedule = poisson_schedule(
          plan.open_rate, args.seconds * (1 - plan.closed_share),
          args.seed * 0x9e3779b97f4a7c15ULL + 1);
      Phase ph = drv->open(*wl, schedule);
      std::vector<double> lag = ph.lag_us;
      std::sort(lag.begin(), lag.end());
      at.facts.lag_p99_us = quantile_sorted(lag, 0.99);
      at.facts.achieved_rate_frac = ph.achieved_rate / ph.intended_rate;
      const double lag_p50 = quantile_sorted(lag, 0.5);
      std::printf("open_loop intended_rate %.1f/s achieved_rate %.1f/s "
                  "lag_p50_us %.1f lag_p99_us %.1f\n",
                  ph.intended_rate, ph.achieved_rate, lag_p50,
                  at.facts.lag_p99_us);
      if (at.facts.achieved_rate_frac < kMinRateFrac || lag_p50 > kMaxLagP50Us) {
        std::fprintf(stderr, "perfbench: driver fell behind\n");
        at.phases.clear();
      } else {
        at.phases.push_back(std::move(ph));
      }
    }
    at.facts.after = stats();
  };
  // Up to kAttempts measurements; a later one runs only when the driver
  // fell behind in the earlier one.  Answers of every attempt are checked.
  Attempt best;
  Tally all;  // every answer of every attempt
  for (int attempt = 0; attempt < kAttempts && best.phases.empty(); ++attempt) {
    Attempt at;
    measure(at);
    for (const Phase& ph : at.phases) {
      at.tallies.push_back(check_phase(*wl, ph));
      all.add(at.tallies.back());
    }
    if (!at.phases.empty()) best = std::move(at);
  }
  if (best.phases.empty()) return 3;  // an invalid run is not reported
  RunFacts& facts = best.facts;
  const std::vector<Phase>& phases = best.phases;
  if (args.trace) {
    const std::int64_t id = [&] {
      const Json j = Json::parse(drv->request(0, rtt_probe_register()));
      return j.at("result").at("array").as_int();
    }();
    const auto lines = rtt_probe_lines(id);
    facts.socket_rtt_p50_us = rtt_p50_us(
        lines, [&](const std::string& l) { (void)drv->request(0, l); });
  }
  const double rss_mb = server->peak_rss_mb();
  drv.reset();
  const int status = server->stop();
  if (status != 0) {
    std::fprintf(stderr, "perfbench: server exited with status %d\n", status);
    return 1;
  }

  // The end-to-end metrics, from the reported attempt.
  Tally tally;
  const std::vector<Tally>& per_phase = best.tallies;
  double responses = 0, wall = 0;
  for (const Tally& t : per_phase) tally.add(t);
  for (const Phase& ph : phases) {
    for (const Record& r : ph.recs) {
      if (r.recv_ns >= 0) responses += 1;
      facts.tags.push_back(r.tag);
    }
    wall += ph.wall_s();
  }
  facts.measured_wall_s = wall;
  facts.responses = responses;
  for (const auto& e : all.examples) std::fprintf(stderr, "perfbench: %s\n", e.c_str());

  // Capacity: right answers per second of the closed loop (or of the
  // fixed list), and the server's CPU time per answered request in it.
  const Phase& capacity = phases.front();
  double throughput = 0, cpu_per_req = 0;
  {
    double done = 0, answered = 0;
    for (std::size_t i = 0; i < capacity.recs.size(); ++i) {
      if (!is_failure(per_phase.front().verdicts[i])) done += 1;
      if (capacity.recs[i].recv_ns >= 0) answered += 1;
    }
    throughput = done / capacity.wall_s();
    cpu_per_req = best.closed_cpu_us / std::max(1.0, answered);
  }
  // Latency: the open loop's (a fixed list: the closed loop's), timed
  // from each request's due time to the kernel's receipt of its
  // response.  p50_us is the lower decile over chunks of the chunk
  // medians; the p99 over the whole sample is printed beside the
  // metrics but not reported (see README.md).
  const Phase& timing = phases.back();
  std::vector<double> lat;
  for (const Record& r : timing.recs) {
    if (r.recv_ns >= 0) lat.push_back(latency_us(r.due_ns, r.arrived_ns));
  }
  const double p50 = chunked_quantile(lat, 0.5, kLatencyChunkQ,
                                      kLatencyMinChunk, kLatencyChunks);
  std::vector<double> lat_sorted = lat;
  std::sort(lat_sorted.begin(), lat_sorted.end());
  const double p99q = supported_quantile(lat_sorted.size(), 0.99);
  const double p99 = quantile_sorted(lat_sorted, p99q);

  const double success =
      1.0 - static_cast<double>(tally.failures) /
                static_cast<double>(std::max<std::size_t>(1, tally.attempted));
  std::vector<Metric> e2e{
      {"throughput_rps", throughput, "1/s"},
      {"p50_us", p50, "us"},
      {"success_rate", success, "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"server_rss_mb", rss_mb, "MB"},
      {"server_cpu_us_per_req", cpu_per_req, "us"},
  };

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              wl->name(), args.seed, args.seconds, args.trace ? 1 : 0);
  for (const Metric& m : e2e) {
    std::printf("%-24s %14s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("%-24s %14s us  (not reported: p%.2f of all %zu latency "
              "samples)\n",
              "p99_us", fmt(p99).c_str(), p99q * 100, lat.size());
  std::printf("%-24s %14s ratio  (not reported: 1 - success_rate)\n",
              "error_rate", fmt(1.0 - success).c_str());
  std::printf("verdicts");
  for (const auto& [v, c] : tally.by_verdict) std::printf(" %s=%zu", verdict_name(v), c);
  std::printf("\n");

  std::vector<Metric> reported = e2e;
  if (args.trace) {
    SpanLog spans;
    reported = measure_layers(*wl, facts, args.seed, spans);
    for (const Metric& m : reported) {
      std::printf("%-36s %14s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                  m.unit.c_str());
    }
    if (!args.spans.empty()) {
      std::ofstream(args.spans) << spans.chrome_json();
    }
  }

  // Provenance, then the result object as the last line.
  utsname un{};
  ::uname(&un);
  Json::Obj prov;
  prov["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  prov["kernel"] = std::string(un.sysname) + " " + un.release;
  prov["compiler"] = pmonge::support::build_compiler();
  prov["build_type"] = PERFBENCH_BUILD_TYPE;
  prov["git"] = args.git;
  prov["workload"] = wl->name();
  prov["seed"] = static_cast<std::int64_t>(args.seed);
  prov["seconds"] = args.seconds;
  prov["conns"] = static_cast<std::int64_t>(kConns);
  prov["closed_window"] = static_cast<std::int64_t>(plan.closed_window);
  prov["open_rate"] = plan.open_rate;
  prov["setups"] = static_cast<std::int64_t>(kSetups);
  Json::Arr flags{Json("--listen"), Json("127.0.0.1:0")};
  for (const auto& f : server_flags) flags.emplace_back(f);
  prov["server_flags"] = Json(std::move(flags));
  Json::Obj pv;
  pv["provenance"] = Json(std::move(prov));
  std::printf("%s\n", Json(std::move(pv)).dump().c_str());

  const std::size_t failed = all.unexpected;
  std::string out = "{\"correct\":";
  out += failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(all.attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    char num[48];
    const double v = std::isfinite(reported[i].value) ? reported[i].value : 0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) out += ',';
    out += "\"" + reported[i].name + "\":{\"value\":" + num + ",\"unit\":\"" +
           reported[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
