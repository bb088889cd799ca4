// Arrival schedules and latency arithmetic for the benchmark driver.
//
// Open-loop latency is timed from each request's *scheduled* arrival,
// not from the moment the driver got round to sending it: a driver or
// server stall then shows up in the latency of every request due during
// the stall (no coordinated omission).  The driver's own lateness,
// send time minus scheduled time, is reported separately as lag.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

/// Poisson arrival offsets in nanoseconds from the start of a phase:
/// exponential gaps of mean 1/rate, drawn from `seed`, every arrival
/// strictly before `duration_s`.  The same arguments give the same
/// schedule.
inline std::vector<std::int64_t> poisson_schedule(double rate_per_s,
                                                  double duration_s,
                                                  std::uint64_t seed) {
  std::vector<std::int64_t> out;
  if (rate_per_s <= 0 || duration_s <= 0) return out;
  out.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  pmonge::Rng rng(seed);
  double t = 0;
  while (true) {
    t += -std::log1p(-rng.uniform01()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

/// Latency of one request in microseconds, from its due time (scheduled
/// arrival in an open loop) to the arrival of its response.
inline double latency_us(std::int64_t due_ns, std::int64_t recv_ns) {
  return static_cast<double>(recv_ns - due_ns) / 1000.0;
}

/// How late the driver sent a request, in microseconds (never negative:
/// the driver does not send early).
inline double lag_us(std::int64_t due_ns, std::int64_t sent_ns) {
  return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) / 1000.0
                          : 0.0;
}

/// The highest percentile (as a fraction, at most `want`) that still has
/// at least `min_beyond` samples above it in a sample of `n`.
inline double supported_quantile(std::size_t n, double want,
                                  std::size_t min_beyond = 10) {
  if (n <= 2 * min_beyond) return 0.5;
  const double cap = 1.0 - static_cast<double>(min_beyond) /
                               static_cast<double>(n);
  return std::min(want, cap);
}

/// Nearest-rank quantile of an ascending sample (q in (0, 1]).
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// Quiet-stretch estimator.  A shared host can preempt a VM's cores for
// milliseconds at a time, in bursts; a run-wide latency quantile then
// mostly measures the neighbours.  This cuts the requests, in order,
// into chunks, takes the quantile per chunk and reports a low quantile
// over chunks, which a burst hitting some chunks does not reach.  A
// change that moves every chunk (a server regression that is always
// there) still moves it.

/// Samples (in arrival order) cut into consecutive chunks of at least
/// `min_chunk` (at most `max_chunks` chunks); each chunk's `want`
/// quantile; then the `q` quantile over chunks.
inline double chunked_quantile(const std::vector<double>& in_order, double want,
                               double q, std::size_t min_chunk,
                               std::size_t max_chunks) {
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(max_chunks, in_order.size() / min_chunk));
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> part(
        in_order.begin() + static_cast<std::ptrdiff_t>(c * in_order.size() / chunks),
        in_order.begin() + static_cast<std::ptrdiff_t>((c + 1) * in_order.size() / chunks));
    std::sort(part.begin(), part.end());
    per_chunk.push_back(quantile_sorted(part, want));
  }
  std::sort(per_chunk.begin(), per_chunk.end());
  return quantile_sorted(per_chunk, q);
}

}  // namespace perfbench
