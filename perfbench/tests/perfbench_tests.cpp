// The benchmark's own tests: the Poisson schedule and the latency
// arithmetic, the oracle against tampered responses, and stats deltas.
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>

#include "sched.hpp"
#include "statsdelta.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

void test_poisson_schedule() {
  const auto a = poisson_schedule(1000, 10, 42);
  const auto b = poisson_schedule(1000, 10, 42);
  const auto c = poisson_schedule(1000, 10, 43);
  EXPECT(a == b);
  EXPECT(a != c);
  // 10000 expected arrivals; a Poisson count is within 5 sd of that.
  EXPECT(std::abs(static_cast<double>(a.size()) - 10000) < 500);
  bool increasing = true, in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i] < a[i - 1]) increasing = false;
    if (a[i] < 0 || a[i] >= 10'000'000'000) in_range = false;
  }
  EXPECT(increasing);
  EXPECT(in_range);
  // Exponential gaps: the share of gaps above the mean is e^-1.
  std::size_t above = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i] - a[i - 1] > 1'000'000) ++above;
  }
  const double share = static_cast<double>(above) / static_cast<double>(a.size() - 1);
  EXPECT(std::abs(share - std::exp(-1.0)) < 0.03);
  EXPECT(poisson_schedule(0, 10, 1).empty());
}

void test_scheduled_origin_latency() {
  // Due at 1 ms, sent 4 us late, answered 8 us after it was due: the
  // latency counts from the due time, the lateness is lag.
  const std::int64_t due = 1'000'000, sent = 1'004'000, recv = 1'008'000;
  EXPECT(latency_us(due, recv) == 8.0);
  EXPECT(lag_us(due, sent) == 4.0);
  EXPECT(lag_us(due, due - 10) == 0.0);
  // A stalled driver: every request due during a 1 ms stall carries the
  // stall in its latency.
  EXPECT(latency_us(0, 1'000'000 + 20'000) == 1020.0);

  EXPECT(supported_quantile(1000, 0.99) == 0.99);
  EXPECT(std::abs(supported_quantile(500, 0.99) - 0.98) < 1e-12);
  EXPECT(std::abs(supported_quantile(100, 0.99) - 0.90) < 1e-12);
  EXPECT(supported_quantile(15, 0.99) == 0.5);

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(quantile_sorted(v, 0.5) == 500);
  EXPECT(quantile_sorted(v, 0.99) == 990);  // ten samples lie beyond it
  EXPECT(median({3, 1, 2, 4}) == 2.5);
}

void test_quiet_stretch_estimators() {
  // 4 chunks of 3000 latencies; one chunk holds a burst of 90 slow ones.
  std::vector<double> lat;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 3000; ++i) lat.push_back(c == 1 && i < 90 ? 5000.0 : 100.0 + i % 10);
  }
  EXPECT(chunked_quantile(lat, 0.99, 0.25, 3000, 16) == 109.0);
  EXPECT(chunked_quantile(lat, 0.99, 1.0, 3000, 16) == 5000.0);  // the burst's chunk
  // p50_us as the driver takes it: 16 chunks of at least 300, the lower
  // decile of the chunk medians; two chunks slowed by a burst do not
  // move it.
  std::vector<double> mid;
  for (int c = 0; c < 16; ++c) {
    for (int i = 0; i < 400; ++i) mid.push_back((c == 3 || c == 9 ? 900.0 : 50.0) + i % 5);
  }
  EXPECT(chunked_quantile(mid, 0.5, 0.1, 300, 16) == 52.0);
  EXPECT(chunked_quantile(mid, 0.5, 1.0, 300, 16) == 902.0);
}

std::string row_response(std::int64_t id, std::int64_t col, std::int64_t value) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"result\":{\"col\":" +
         std::to_string(col) + ",\"value\":" + std::to_string(value) + "}}";
}

void test_oracle_flags_tampering() {
  const Operand op = Operand::random(Operand::Kind::Monge, 24, 17, 5);
  const auto& want = op.rmin[7];
  const auto col = static_cast<std::int64_t>(want.col);
  EXPECT(oracle::check_row(op, false, 7, 3, row_response(3, col, want.value)) ==
         Verdict::Ok);
  EXPECT(oracle::check_row(op, false, 7, 3,
                           row_response(3, col, want.value + 1)) == Verdict::Wrong);
  EXPECT(oracle::check_row(op, false, 7, 3,
                           row_response(3, (col + 1) % 17, want.value)) ==
         Verdict::Wrong);
  EXPECT(oracle::check_row(op, false, 7, 3, row_response(4, col, want.value)) ==
         Verdict::Error);
  EXPECT(oracle::check_row(op, false, 7, 3,
                           "{\"id\":3,\"ok\":false,\"error\":\"overloaded\"}") ==
         Verdict::Rejected);
  EXPECT(oracle::check_row(op, false, 7, 3, "{\"id\":3,") == Verdict::Error);

  const auto r = oracle::region_brute(op, true, 2, 9, 3, 11);
  EXPECT(r.found);
  for (std::size_t i = 2; i <= 9; ++i) {
    for (std::size_t j = 3; j <= 11; ++j) EXPECT(op.data(i, j) <= r.value);
  }
  const auto region = [&](std::int64_t v, std::size_t row, std::size_t c) {
    return "{\"id\":9,\"ok\":true,\"result\":{\"col\":" + std::to_string(c) +
           ",\"row\":" + std::to_string(row) + ",\"value\":" + std::to_string(v) +
           "}}";
  };
  EXPECT(oracle::check_region(op, true, 2, 9, 3, 11, 9,
                              region(r.value, r.row, r.col)) == Verdict::Ok);
  EXPECT(oracle::check_region(op, true, 2, 9, 3, 11, 9,
                              region(r.value, r.row, r.col == 3 ? 4 : 3)) ==
         Verdict::Wrong);

  // Ties: value, then leftmost column, then topmost row.
  Operand tie;
  tie.rows = tie.cols = 3;
  tie.data = pmonge::monge::DenseArray<std::int64_t>(3, 3);
  tie.data.at(0, 2) = 9;
  tie.data.at(2, 0) = 9;
  tie.data.at(1, 0) = 9;
  const auto t = oracle::region_brute(tie, true, 0, 2, 0, 2);
  EXPECT(t.found && t.value == 9 && t.col == 0 && t.row == 1);

  EXPECT(oracle::edit_dp("kitten", "sitting", 1, 1, 1) == 3);
  EXPECT(oracle::edit_dp("", "abc", 2, 1, 1) == 6);
  EXPECT(oracle::edit_dp("abc", "abd", 1, 1, 5) == 2);  // delete + insert
}

void test_stats_delta() {
  const Counters before = parse_stats(
      "{\"ok\":true,\"result\":{\"cache\":{\"hits\":10,\"misses\":5},"
      "\"exec\":{\"workers\":[{\"busy_us\":100},{\"busy_us\":50}]},"
      "\"trace\":{\"enabled\":false},\"build\":{\"git\":\"x\"}}}");
  const Counters after = parse_stats(
      "{\"ok\":true,\"result\":{\"cache\":{\"hits\":25,\"misses\":6},"
      "\"exec\":{\"workers\":[{\"busy_us\":160},{\"busy_us\":90}]},"
      "\"trace\":{\"enabled\":true},\"queue\":{\"high_water\":7}}}");
  const Counters d = delta(before, after);
  EXPECT(get(d, "cache.hits") == 15);
  EXPECT(get(d, "cache.misses") == 1);
  EXPECT(get(d, "exec.workers.1.busy_us") == 40);
  EXPECT(sum_over(d, "exec.workers", "busy_us") == 100);
  EXPECT(get(d, "trace.enabled") == 1);
  EXPECT(get(d, "queue.high_water") == 7);  // absent before: from zero
  EXPECT(get(d, "build.git") == 0);         // strings are not counters
  bool threw = false;
  try {
    parse_stats("{\"ok\":false,\"error\":\"unknown_op: stats\"}");
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
}

}  // namespace

int main() {
  test_poisson_schedule();
  test_scheduled_origin_latency();
  test_quiet_stretch_estimators();
  test_oracle_flags_tampering();
  test_stats_delta();
  if (g_failures == 0) std::printf("perfbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
