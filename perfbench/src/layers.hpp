// The traced run's per-layer measurements.
//
// Counts come from the server's `stats` op, read before and after the
// measured phases.  Times come from calls into each layer's public
// functions made here, in-process, on the workload's recorded request
// lines or on fixed seeded probes; every timed call is also kept as a
// span (name, start, duration, parent) and written out at the end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched.hpp"
#include "statsdelta.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Spans recorded by the benchmark's own timers.
class SpanLog {
 public:
  /// Open a span; returns its index.  Close with end().
  std::size_t begin(std::string name);
  void end(std::size_t span);
  /// Chrome trace-event JSON of every span.
  std::string chrome_json() const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0, end_ns = 0;
    std::int64_t parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// What the socket run observed, for the per-layer numbers.
struct RunFacts {
  Counters before, after;            // stats around the measured phases
  Counters after_capacity;           // stats after the closed loop
  double measured_wall_s = 0;        // summed wall time of those phases
  double responses = 0;              // responses they received
  std::vector<std::uint32_t> tags;   // issued requests, in send order
  double lag_p99_us = 0;             // open loop (0 for a closed loop)
  double achieved_rate_frac = 1;     // open loop (1 for a closed loop)
  double socket_rtt_p50_us = 0;      // sequential cached-hit probe
};

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Every per-layer metric, in BENCHMARK.json order.  Moves the
/// workload's operand data into an in-process registry: check every
/// answer first.
std::vector<Metric> measure_layers(Workload& wl, const RunFacts& facts,
                                   std::uint64_t seed, SpanLog& spans);

/// The register line and query lines of the fixed cached-hit probe
/// behind rpc.overhead_p50_us: a 64x48 Monge array's 64 row minima.
std::string rtt_probe_register();
std::vector<std::string> rtt_probe_lines(std::int64_t array_id);

/// Median round trip, in microseconds, of `passes` sequential passes
/// over `lines` (the first pass warms the cache and is not timed).
template <class RoundTrip>
double rtt_p50_us(const std::vector<std::string>& lines, RoundTrip&& rt,
                  int passes = 30) {
  std::vector<double> us;
  for (int p = 0; p < passes; ++p) {
    for (const std::string& l : lines) {
      const std::int64_t t0 = now_ns();
      rt(l);
      if (p > 0) us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    }
  }
  return median(std::move(us));
}

}  // namespace perfbench
