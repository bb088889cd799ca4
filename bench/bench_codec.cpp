// Codec microbench: the request/response byte paths before vs after the
// zero-allocation rework, measured head to head on identical inputs.
//
//   parse:     Json-DOM parse_request (the slow path) vs the streaming
//              canonicalizer (serve/codec.hpp) -- ns/req and allocs/req;
//   register:  parse_request vs RequestCodec::decode_register on 256x256
//              register_dense lines -- us/MB and allocs/line -- with the
//              client's field order and short cells, with 8-19-digit
//              cells (the scanner's general path), and with data before
//              rows and cols (no size hint);
//   serialize: make_ok_response (DOM dump) vs append_ok_response_raw
//              (splice into a reused buffer) -- ns/resp and allocs/resp;
//   serve:     warm cached-hit through Service with the fast path off
//              (pre-codec behavior) vs Service::try_serve_fast.
//
// Allocation counts come from a global operator-new hook (thread-local
// counter, main thread only).  The run exits nonzero if the warm fast
// path allocates at all (the zero-steady-state-allocation gate CI runs),
// if the register decoder's allocations per line differ between a 16x16
// and a 256x256 line or between the three 256x256 lines, or if either
// codec fails to beat the DOM parse on time.
//
//   --reqs N            requests per timed loop      (default 20000)
//   --reps N            median-of-N repetitions      (default 5)
//   --warmup N          throwaway runs per config    (default 1)
//   --json[=PATH]       machine-readable records     (BENCH_codec.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "monge/generators.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {
thread_local std::uint64_t t_news = 0;
}

void* operator new(std::size_t n) {
  ++t_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++t_news;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using pmonge::serve::FastQuery;
using pmonge::serve::Json;
using pmonge::serve::RegisterLine;
using pmonge::serve::RequestCodec;
using pmonge::serve::Service;
using pmonge::serve::ServiceOptions;

/// Representative request lines: the short cached-query shape the fast
/// path exists for, plus a wider one with strings and shuffled keys.
std::vector<std::string> request_lines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back("{\"op\":\"rowmin\",\"array\":0,\"id\":" +
                    std::to_string(i) + ",\"row\":" + std::to_string(i) + "}");
  }
  lines.push_back(
      R"({"op":"string_edit","id":99,"x":"kitten","y":"sitting"})");
  lines.push_back(
      R"({ "row" : 3 , "array" : 0 , "op" : "rowmin" , "id" : 100 })");
  return lines;
}

/// The cells of a register line.
enum class Cells {
  Monge,  // an n x n Monge array: short cells, as the benchmark client sends
  Long    // random cells of 8 to 19 digits each
};

/// A register_dense line for an n x n array, fields in the order the
/// service benchmark's client sends them, or with data before rows and
/// cols.
std::string register_line(std::size_t n, Cells cells = Cells::Monge,
                          bool data_first = false) {
  pmonge::Rng rng(42);
  const auto a = pmonge::monge::random_monge(n, n, rng);
  std::string data = "[";
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i + j > 0) data += ',';
      if (cells == Cells::Monge) {
        data += std::to_string(a(i, j));
        continue;
      }
      const int digits = 8 + static_cast<int>(rng() % 12);
      std::uint64_t lo = 1;
      for (int d = 1; d < digits; ++d) lo *= 10;
      const std::uint64_t hi =
          digits == 19 ? std::uint64_t{INT64_MAX} : lo * 10 - 1;
      data += std::to_string(lo + rng() % (hi - lo + 1));
    }
  }
  data += ']';
  const std::string dims =
      "\"rows\":" + std::to_string(n) + ",\"cols\":" + std::to_string(n);
  return data_first
             ? "{\"id\":0,\"op\":\"register_dense\",\"data\":" + data + "," +
                   dims + "}"
             : "{\"id\":0,\"op\":\"register_dense\"," + dims +
                   ",\"data\":" + data + "}";
}

struct Measured {
  double ns_per = 0;      // median wall ns per item
  double allocs_per = 0;  // heap allocations per item (exact, one pass)
};

/// Median-of-reps wall time per item plus a one-pass allocation count.
template <class F>
Measured measure(F&& body, std::size_t items, std::size_t warmup,
                 std::size_t reps) {
  Measured m;
  const auto stats = pmonge::bench::timed_median(body, warmup, reps);
  m.ns_per = stats.median_ms * 1e6 / static_cast<double>(items);
  const std::uint64_t before = t_news;
  body();
  m.allocs_per =
      static_cast<double>(t_news - before) / static_cast<double>(items);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  pmonge::Cli cli(argc, argv);
  const auto reqs = static_cast<std::size_t>(cli.get_int("reqs", 20000));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const auto warmup = static_cast<std::size_t>(cli.get_int("warmup", 1));
  auto records =
      pmonge::bench::JsonRecords::from_cli(cli, "codec", "BENCH_codec.json");
  const auto lines = request_lines();

  pmonge::Table table(
      {"path", "before ns", "after ns", "speedup", "allocs/req before",
       "allocs/req after"});
  bool gate_failed = false;
  const auto emit = [&](const char* path, const Measured& before,
                        const Measured& after) {
    table.add_row({path, pmonge::Table::fixed(before.ns_per, 0),
                   pmonge::Table::fixed(after.ns_per, 0),
                   pmonge::Table::fixed(before.ns_per / after.ns_per, 2) + "x",
                   pmonge::Table::fixed(before.allocs_per, 2),
                   pmonge::Table::fixed(after.allocs_per, 2)});
    Json::Obj r;
    r["path"] = path;
    r["before_ns_per_req"] = before.ns_per;
    r["after_ns_per_req"] = after.ns_per;
    r["before_allocs_per_req"] = before.allocs_per;
    r["after_allocs_per_req"] = after.allocs_per;
    records.add(std::move(r));
  };

  pmonge::bench::print_header("request parse: DOM parse_request vs codec");
  {
    const Measured before = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            const auto r = pmonge::serve::parse_request(lines[i % lines.size()]);
            if (r.signature.empty()) std::abort();
          }
        },
        reqs, warmup, reps);
    RequestCodec codec;
    FastQuery q;
    const Measured after = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            if (!codec.canonicalize_query(lines[i % lines.size()], q)) {
              std::abort();
            }
          }
        },
        reqs, warmup, reps);
    emit("parse", before, after);
    if (after.ns_per >= before.ns_per) gate_failed = true;
    if (after.allocs_per != 0.0) gate_failed = true;  // warm codec: zero
  }

  pmonge::bench::print_header(
      "register parse: DOM parse_request vs decode_register, 256x256");
  {
    // Wall time per MB of line and heap allocations per line, for each
    // line form.  The decoder's allocations must not grow with the cell
    // count (its one vector is reserved up front), so they are counted
    // at 16x16 too, nor depend on the cells or the field order.
    const std::size_t n = std::max<std::size_t>(4, reqs / 1000);
    const std::size_t max_cells = ServiceOptions{}.max_register_cells;
    RequestCodec codec;
    const auto decode = [&](const std::string& l, std::size_t times) {
      for (std::size_t i = 0; i < times; ++i) {
        RegisterLine reg;
        if (!codec.decode_register(l, max_cells, reg)) std::abort();
      }
    };
    struct Row {
      Measured before, after;
    };
    const auto register_row = [&](const char* path, const std::string& line,
                                  Json::Obj r) {
      const double mb = static_cast<double>(line.size()) / 1e6;
      const Measured before = measure(
          [&] {
            for (std::size_t i = 0; i < n; ++i) {
              if (pmonge::serve::parse_request(line).op.empty()) std::abort();
            }
          },
          n, warmup, reps);
      const Measured after = measure([&] { decode(line, n); }, n, warmup, reps);
      const double before_us_mb = before.ns_per / 1e3 / mb;
      const double after_us_mb = after.ns_per / 1e3 / mb;
      table.add_row({std::string(path) + " (us/MB)",
                     pmonge::Table::fixed(before_us_mb, 0),
                     pmonge::Table::fixed(after_us_mb, 0),
                     pmonge::Table::fixed(before_us_mb / after_us_mb, 2) + "x",
                     pmonge::Table::fixed(before.allocs_per, 0),
                     pmonge::Table::fixed(after.allocs_per, 2)});
      r["path"] = path;
      r["line_bytes"] = static_cast<std::int64_t>(line.size());
      r["before_us_per_mb"] = before_us_mb;
      r["after_us_per_mb"] = after_us_mb;
      r["before_allocs_per_line"] = before.allocs_per;
      r["after_allocs_per_line"] = after.allocs_per;
      records.add(std::move(r));
      return Row{before, after};
    };

    const std::string small = register_line(16);
    const Measured after_small =
        measure([&] { decode(small, n); }, n, warmup, 1);
    Json::Obj small_allocs;
    small_allocs["after_allocs_per_line_16x16"] = after_small.allocs_per;
    const Row main =
        register_row("register_parse", register_line(256), small_allocs);
    const Row long_cells = register_row(
        "register_parse_long_cells", register_line(256, Cells::Long), {});
    const Row data_first =
        register_row("register_parse_data_first",
                     register_line(256, Cells::Monge, true), {});
    // Count gates first (they cannot flip on noise), then the time one.
    if (main.after.allocs_per != after_small.allocs_per) gate_failed = true;
    if (long_cells.after.allocs_per != main.after.allocs_per) gate_failed = true;
    if (data_first.after.allocs_per != main.after.allocs_per) gate_failed = true;
    if (main.after.allocs_per >= main.before.allocs_per) gate_failed = true;
    if (main.after.ns_per >= main.before.ns_per) gate_failed = true;
  }

  pmonge::bench::print_header(
      "response serialize: make_ok_response vs append_ok_response_raw");
  {
    const std::string cached = R"({"col":0,"value":1})";
    const Measured before = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            const std::string resp = pmonge::serve::make_ok_response(
                static_cast<std::int64_t>(i), Json::parse(cached));
            if (resp.empty()) std::abort();
          }
        },
        reqs, warmup, reps);
    std::string buf;
    const Measured after = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            buf.clear();
            pmonge::serve::append_ok_response_raw(static_cast<std::int64_t>(i),
                                                  cached, buf);
            if (buf.empty()) std::abort();
          }
        },
        reqs, warmup, reps);
    emit("serialize", before, after);
    if (after.ns_per >= before.ns_per) gate_failed = true;
  }

  pmonge::bench::print_header(
      "cached-hit serve: fast path off (pre-codec) vs try_serve_fast");
  {
    const std::string reg =
        R"({"op":"register_dense","rows":2,"cols":3,"data":[1,2,4,0,1,3]})";
    const std::string query = R"({"op":"rowmin","array":0,"row":0})";
    const std::size_t serve_reqs = std::min<std::size_t>(reqs, 4096);

    ServiceOptions off;
    off.fast_path = false;
    Service slow(off);
    slow.request(reg);
    slow.request(query);  // warm the cache
    const Measured before = measure(
        [&] {
          for (std::size_t i = 0; i < serve_reqs; ++i) slow.request(query);
        },
        serve_reqs, warmup, reps);

    Service fast;
    fast.request(reg);
    fast.request(query);
    std::string out;
    const Measured after = measure(
        [&] {
          for (std::size_t i = 0; i < serve_reqs; ++i) {
            out.clear();
            if (!fast.try_serve_fast(query, out)) std::abort();
          }
        },
        serve_reqs, warmup, reps);
    emit("serve_cached_hit", before, after);
    // The gate CI enforces: the warm fast path performs zero heap
    // allocations per cached-hit request.
    if (after.allocs_per != 0.0) gate_failed = true;
  }

  table.print(std::cout);
  records.write();
  std::cout << (gate_failed
                    ? "GATE FAILED: codec slower than DOM path, warm fast "
                      "path allocated, or register decode allocations grew "
                      "with the cell count\n"
                    : "gates ok: codec and register decoder faster, warm fast "
                      "path allocation-free, register decode allocations "
                      "constant\n");
  return gate_failed ? 1 : 0;
}
