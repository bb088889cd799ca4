// The zero-allocation serve fast path (serve/codec.hpp, docs/
// performance.md), tested from four sides:
//
//   1. Differential fuzz: for every line the streaming canonicalizer
//      ACCEPTS, its signature / op / id must be byte-identical to what
//      the slow path (parse_request) computes; for every line the
//      register decoder accepts, its fields must equal the DOM's, and a
//      Service answering it must give the bytes (and store the cells) a
//      Service answering it through the DOM gives.  Refusal is always
//      legal; acceptance is the claim under test.  Coverage checks keep
//      the fuzz honest (the codecs must actually accept the forms they
//      exist for -- whitespace, shuffled keys, escapes, int64 extremes).
//   2. Fast/slow response identity: two Services differing only in
//      `fast_path` answer an identical request stream -- including
//      cache-hitting repeats, errors and unregister invalidation --
//      with byte-identical NDJSON.
//   3. The allocation gate: a warmed cached-hit through
//      Service::try_serve_fast performs ZERO heap allocations, asserted
//      by a global operator-new hook.
//   4. An 8-thread hammer over the same cached queries (the TSan leg of
//      the sanitizer matrix; also asserts bytes under concurrency).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

// --------------------------------------------------------------------------
// Global operator-new hook: counts allocations on the calling thread.
// Trivially-initialized thread_local, so the hook is safe from the very
// first allocation of the process.
// --------------------------------------------------------------------------

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
// Not inlined: GCC 12 would inline them into gtest's `new TestClass` and
// flag free() on an operator-new pointer (-Wmismatched-new-delete), which
// is a false alarm here, where operator new is malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                           std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                           std::align_val_t) noexcept {
  std::free(p);
}

namespace pmonge {
namespace {

using serve::FastQuery;
using serve::RegisterLine;
using serve::Request;
using serve::RequestCodec;
using serve::Service;
using serve::ServiceOptions;

// --------------------------------------------------------------------------
// 1. Differential fuzz against the slow path
// --------------------------------------------------------------------------

/// Random request-ish JSON lines: valid structure with shuffled keys,
/// random whitespace, duplicate keys, escapes, deep values -- plus a
/// slice of deliberately malformed bytes.
class LineGen {
 public:
  explicit LineGen(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    const std::string line = pct(25) ? register_line() : object_line();
    return pct(10) ? mutate(line) : line;
  }

 private:
  bool pct(int p) { return static_cast<int>(rng_() % 100) < p; }

  std::string ws() {
    static const char* kWs[] = {"", "", "", " ", "  ", "\t", "\n"};
    return kWs[rng_() % 7];
  }

  std::string random_string() {
    static const char* kPool[] = {
        "rowmin",   "rowmax",     "stats",  "a b",      "x\\ny",
        "quote\"q", "back\\\\b",  "tab\tt", "\\u0041b", "\\u00e9",
        "\\ud83d\\ude00",  // surrogate pair
        "",         "plain",      "/slash", "\\u0000z"};
    return kPool[rng_() % 15];
  }

  std::string value(int depth) {
    switch (rng_() % 8) {
      case 0:
        return std::to_string(static_cast<std::int64_t>(rng_()) %
                              1000000007LL);
      case 1: {
        static const char* kNums[] = {
            "0",    "-0",      "1e3",   "1.5",  "-2.25e-3",
            "1e308","1e309",   "9223372036854775807",
            "9223372036854775808",  // int64 overflow -> double
            "-9223372036854775808", "0.1", "3.141592653589793"};
        return kNums[rng_() % 12];
      }
      case 2:
        return std::string("\"") + random_string() + "\"";
      case 3:
        return pct(50) ? "true" : "false";
      case 4:
        return "null";
      case 5: {
        if (depth > 2) return "1";
        std::string a = "[";
        const std::size_t n = rng_() % 4;
        for (std::size_t i = 0; i < n; ++i) {
          if (i) a += ",";
          a += ws() + value(depth + 1) + ws();
        }
        return a + "]";
      }
      default: {
        if (depth > 2) return "2";
        std::string o = "{";
        const std::size_t n = rng_() % 3;
        for (std::size_t i = 0; i < n; ++i) {
          if (i) o += ",";
          o += ws() + "\"k" + std::to_string(rng_() % 5) + "\"" + ws() + ":" +
               ws() + value(depth + 1) + ws();
        }
        return o + "}";
      }
    }
  }

  std::string object_line() {
    std::vector<std::string> pairs;
    if (pct(90)) {
      pairs.push_back("\"op\":" + ws() + "\"" +
                      std::string(pct(80) ? "rowmin" : "register_dense") +
                      "\"");
    }
    if (pct(70)) {
      pairs.push_back("\"id\":" + ws() +
                      std::to_string(static_cast<std::int64_t>(rng_() % 2000) -
                                     1000));
    }
    if (pct(8)) pairs.push_back("\"deadline_ms\":100");
    if (pct(5)) pairs.push_back("\"trace_id\":7");
    const std::size_t extra = rng_() % 4;
    for (std::size_t i = 0; i < extra; ++i) {
      static const char* kKeys[] = {"array", "row",  "r0",    "c1",
                                    "data",  "seed", "zkey",  "Akey",
                                    "row",   "esc\\u0041"};  // dup + escaped
      pairs.push_back("\"" + std::string(kKeys[rng_() % 10]) + "\":" + ws() +
                      value(0));
    }
    std::shuffle(pairs.begin(), pairs.end(), rng_);
    std::string line = "{";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i) line += ",";
      line += ws() + pairs[i] + ws();
    }
    line += "}";
    if (pct(30)) line = ws() + line + ws();
    return line;
  }

  /// An integer cell in one of the token forms the DOM reads as int64,
  /// or now and then one it reads as something else.
  std::string cell() {
    static const char* kForms[] = {
        "-0", "01", "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "2.5", "1e2", "\"7\"", "[1]", "null"};
    if (pct(95)) {
      return std::to_string(static_cast<std::int64_t>(rng_() % 2001) - 1000);
    }
    return kForms[rng_() % 10];
  }

  /// A register_dense / register_staircase line: well-formed data and
  /// frontier arrays (Monge-shaped half the time, so validate can pass),
  /// shuffled keys and whitespace, with the fields and forms the decoder
  /// must refuse mixed in at low rates.
  std::string register_line() {
    const bool stair = pct(50);
    const std::size_t rows = 1 + rng_() % 4, cols = 1 + rng_() % 4;
    std::vector<std::string> pairs;
    pairs.push_back("\"op\":" + ws() +
                    (stair ? "\"register_staircase\"" : "\"register_dense\""));
    if (pct(70)) {
      pairs.push_back("\"id\":" + ws() +
                      std::to_string(static_cast<std::int64_t>(rng_() % 2000) -
                                     1000));
    }
    if (pct(97)) {
      pairs.push_back("\"rows\":" + ws() +
                      (pct(3) ? cell() : std::to_string(rows)));
    }
    if (pct(97)) pairs.push_back("\"cols\":" + ws() + std::to_string(cols));
    const bool monge = pct(50);
    const std::size_t cells = rows * cols + (pct(3) ? 1 : 0);
    std::string data = "[";
    for (std::size_t k = 0; k < cells; ++k) {
      const auto i = static_cast<std::int64_t>(k / cols);
      const auto j = static_cast<std::int64_t>(k % cols);
      if (k) data += ",";
      data += ws();
      data += monge ? std::to_string(3 * (i - j) * (i - j) + 7 * i - j)
                    : cell();
      data += ws();
    }
    data += "]";
    if (pct(97)) pairs.push_back("\"data\":" + ws() + data);
    if (stair ? pct(97) : pct(3)) {
      std::string fr = "[";
      std::size_t f = cols;
      for (std::size_t i = 0; i < rows + (pct(3) ? 1 : 0); ++i) {
        if (i) fr += ",";
        if (pct(3)) {
          fr += cell();
        } else {
          fr += std::to_string(f);
          if (f > 0 && pct(50)) --f;
        }
      }
      pairs.push_back("\"frontier\":" + ws() + fr + "]");
    }
    if (stair ? pct(3) : pct(40)) {
      static const char* kKinds[] = {"\"monge\"", "\"inverse_monge\"",
                                     "\"weird\"", "5", "\"mon\\u0067e\""};
      pairs.push_back(std::string("\"kind\":") + kKinds[rng_() % 5]);
    }
    if (pct(40)) {
      static const char* kBools[] = {"true", "false", "1", "\"true\""};
      pairs.push_back(std::string("\"validate\":") +
                      kBools[pct(90) ? rng_() % 2 : 2 + rng_() % 2]);
    }
    if (pct(3)) pairs.push_back("\"deadline_ms\":100");
    if (pct(3)) pairs.push_back("\"trace_id\":7");
    if (pct(3)) pairs.push_back("\"seed\":1");
    if (pct(3)) pairs.push_back("\"rows\":" + std::to_string(rows));
    if (pct(3)) pairs.push_back("\"c\\u006fls\":" + std::to_string(cols));
    std::shuffle(pairs.begin(), pairs.end(), rng_);
    std::string line = "{";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i) line += ",";
      line += ws() + pairs[i] + ws();
    }
    return line + "}";
  }

  std::string mutate(std::string line) {
    if (line.empty()) return line;
    switch (rng_() % 4) {
      case 0:
        line.resize(rng_() % line.size());  // truncate
        break;
      case 1:
        line[rng_() % line.size()] = static_cast<char>(rng_() % 256);
        break;
      case 2:
        line += "garbage";
        break;
      default:
        line.insert(rng_() % line.size(), 1, ',');
        break;
    }
    return line;
  }

  std::mt19937_64 rng_;
};

std::vector<std::int64_t> dom_ints(const serve::Json& arr) {
  std::vector<std::int64_t> out;
  for (const serve::Json& v : arr.arr()) out.push_back(v.as_int());
  return out;
}

/// The register fields the DOM path reads from `r`, against the decoder's.
void expect_same_register(const Request& r, const RegisterLine& reg,
                          const std::string& line) {
  const serve::Json& b = r.body;
  EXPECT_EQ(r.op, reg.staircase ? "register_staircase" : "register_dense")
      << line;
  EXPECT_EQ(reg.id, r.id) << line;
  EXPECT_EQ(reg.rows, b.at("rows").as_int()) << line;
  EXPECT_EQ(reg.cols, b.at("cols").as_int()) << line;
  EXPECT_EQ(reg.data, dom_ints(b.at("data"))) << line;
  if (reg.staircase) {
    EXPECT_EQ(reg.frontier, dom_ints(b.at("frontier"))) << line;
  } else {
    EXPECT_TRUE(reg.frontier.empty()) << line;
    const serve::Json* kind = b.find("kind");
    EXPECT_EQ(reg.kind, kind != nullptr ? kind->as_string() : "monge") << line;
  }
  const serve::Json* validate = b.find("validate");
  EXPECT_EQ(reg.validate, validate != nullptr && validate->as_bool()) << line;
}

TEST(CodecDifferential, AcceptedLinesMatchSlowPathExactly) {
  LineGen gen(20260809);
  RequestCodec codec;
  // Register lines the decoder accepts go to `streamed`; the same line
  // with one member the DOM ignores (and the decoder refuses) goes to
  // `dom`.  Both see the same accepted registers, so array ids agree.
  Service streamed, dom;
  std::size_t accepted = 0, slow_ok_count = 0, registers = 0, registered = 0;
  for (int iter = 0; iter < 60000; ++iter) {
    const std::string line = gen.next();
    Request r;
    bool slow_ok = true;
    try {
      r = serve::parse_request(line);
    } catch (...) {
      slow_ok = false;
    }
    if (slow_ok) ++slow_ok_count;

    FastQuery q;
    if (codec.canonicalize_query(line, q)) {  // refusal is always legal
      ++accepted;
      ASSERT_TRUE(slow_ok) << "codec accepted a line the parser rejects: "
                           << line;
      // The codec accepts only kernel-backed query ops, the domain on
      // which parse_request computes a signature.
      ASSERT_NE(serve::find_query_op(r.op), nullptr) << "line: " << line;
      EXPECT_EQ(q.signature, r.signature) << "line: " << line;
      EXPECT_EQ(q.op, r.op) << "line: " << line;
      EXPECT_EQ(q.id, r.id) << "line: " << line;
      EXPECT_EQ(q.hash, serve::cache_checksum(q.signature));
    }

    RegisterLine reg;
    if (!codec.decode_register(line, streamed.options().max_register_cells,
                               reg)) {
      continue;
    }
    ++registers;
    ASSERT_TRUE(slow_ok) << "decoder accepted a line the parser rejects: "
                         << line;
    expect_same_register(r, reg, line);
    std::string padded = line;
    padded.insert(padded.rfind('}'), ",\"dom_only\":0");
    RegisterLine refused;
    ASSERT_FALSE(codec.decode_register(
        padded, streamed.options().max_register_cells, refused));
    const std::string resp = streamed.request(line);
    ASSERT_EQ(resp, dom.request(padded)) << "line: " << line;
    if (resp.find("\"ok\":true") == std::string::npos) continue;
    // Pin the stored cells too: the same row search on both.
    ++registered;
    const std::string array =
        resp.substr(resp.find("\"array\":") + 8,
                    resp.find('}') - resp.find("\"array\":") - 8);
    const std::string query =
        std::string("{\"op\":\"") +
        (reg.staircase ? "staircase_rowmin" : "rowmin") +
        "\",\"array\":" + array + ",\"row\":0}";
    ASSERT_EQ(streamed.request(query), dom.request(query)) << query;
  }
  // The fuzz is vacuous if the codec refuses everything interesting.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(slow_ok_count, accepted);
  EXPECT_GT(registers, 5000u);
  EXPECT_GT(registered, 4000u);
}

/// Register lines aimed at the cell scanner (RequestCodec::read_ints):
/// every token length from 1 to 20 digits with and without '-' and
/// leading zeros, the 7/8-digit boundary of the eight-byte token path,
/// int64 extremes and one past them, digits continued by '.', 'e' or
/// 'E', whitespace around cells, and keys in any order, so `data` comes
/// before `rows`/`cols` (no size hint) about a third of the time.
class CellLineGen {
 public:
  explicit CellLineGen(std::uint64_t seed) : rng_(seed) {}

  /// A cell the DOM reads as an int64.
  std::string int_cell() {
    switch (rng_() % 8) {
      case 0: {
        static const char* kEdges[] = {
            "9223372036854775807", "9223372036854775806",
            "-9223372036854775808", "-9223372036854775807",
            "9999999", "-9999999", "10000000", "-10000000", "1234567",
            "12345678", "0000000", "00000000", "0", "-0", "0000009",
            "-0000001", "000000000000000000001", "-00000000000000000000"};
        return kEdges[rng_() % 18];
      }
      case 1:
        return std::to_string(static_cast<std::int64_t>(rng_()));
      default: {
        // 1 to 18 digits (always in range), any of them a leading zero,
        // sometimes behind up to two more zeros: 1 to 20 digits in all.
        std::string t = pct(30) ? "-" : "";
        if (pct(20)) t.append(1 + rng_() % 2, '0');
        const std::size_t n = 1 + rng_() % 18;
        for (std::size_t i = 0; i < n; ++i) {
          t.push_back(static_cast<char>('0' + rng_() % 10));
        }
        return t;
      }
    }
  }

  /// A cell the DOM reads as something other than an int64.
  std::string bad_cell() {
    static const char* kTails[] = {".5", "e3", "E2", ".0e1", "e+1", "E-2"};
    switch (rng_() % 4) {
      case 0: {
        static const char* kOut[] = {
            "9223372036854775808", "-9223372036854775809",
            "10000000000000000000", "-99999999999999999999"};
        return kOut[rng_() % 4];
      }
      case 1:  // up to 19 digits, then a fraction or exponent
        return int_cell().substr(0, 20) + kTails[rng_() % 6];
      default: {  // 1 to 7 digits, then a fraction or exponent
        std::string t = pct(50) ? "-" : "";
        const std::size_t n = 1 + rng_() % 7;
        for (std::size_t i = 0; i < n; ++i) {
          t.push_back(static_cast<char>('0' + rng_() % 10));
        }
        return t + kTails[rng_() % 6];
      }
    }
  }

  /// A register line with `count` data cells declared as rows x cols;
  /// one line in eight carries a non-integer cell somewhere.
  std::string line(std::size_t rows, std::size_t cols, std::size_t count) {
    const bool stair = pct(25);
    const bool spaced = pct(20);
    std::string data = "[";
    const std::size_t bad = pct(12) ? rng_() % std::max<std::size_t>(count, 1)
                                    : count;
    for (std::size_t k = 0; k < count; ++k) {
      if (k) data += ',';
      if (spaced && pct(30)) data += " ";
      data += k == bad ? bad_cell() : int_cell();
      if (spaced && pct(30)) data += "\n";
    }
    data += ']';
    std::vector<std::string> pairs = {
        std::string("\"op\":") +
            (stair ? "\"register_staircase\"" : "\"register_dense\""),
        "\"rows\":" + std::to_string(rows),
        "\"cols\":" + std::to_string(cols),
        "\"data\":" + data};
    if (pct(50)) pairs.push_back("\"id\":" + int_cell().substr(0, 18));
    if (stair) {
      std::string fr = "[";
      for (std::size_t i = 0; i < rows + (pct(5) ? 1 : 0); ++i) {
        if (i) fr += ',';
        fr += pct(90) ? std::to_string(cols - std::min(i, cols)) : int_cell();
      }
      pairs.push_back("\"frontier\":" + fr + "]");
    }
    std::shuffle(pairs.begin(), pairs.end(), rng_);
    std::string out = "{";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i) out += ',';
      out += pairs[i];
    }
    return out + "}";
  }

  bool pct(int p) { return static_cast<int>(rng_() % 100) < p; }
  std::size_t below(std::size_t n) { return rng_() % n; }

 private:
  std::mt19937_64 rng_;
};

/// Whether every element of the DOM array `a` is an int64.
bool all_ints(const serve::Json& a) {
  return std::all_of(a.arr().begin(), a.arr().end(), [](const serve::Json& v) {
    return v.type() == serve::Json::Type::Int;
  });
}

/// The decoder must accept `line` exactly when every cell is an int64
/// and both arrays fit `max_cells`, and then read the DOM's values.  A
/// Service fed the line and one fed it through the DOM (an extra member
/// the decoder refuses) must answer with the same bytes.
void check_cell_line(RequestCodec& codec, Service& streamed, Service& dom,
                     const std::string& line, std::size_t max_cells,
                     std::size_t& accepted) {
  const Request r = serve::parse_request(line);
  const serve::Json& b = r.body;
  const serve::Json* fr = b.find("frontier");
  const bool want = all_ints(b.at("data")) &&
                    b.at("data").arr().size() <= max_cells &&
                    (fr == nullptr ||
                     (all_ints(*fr) && fr->arr().size() <= max_cells));
  RegisterLine reg;
  const bool got = codec.decode_register(line, max_cells, reg);
  ASSERT_EQ(got, want) << line.substr(0, 200);
  if (!got) return;
  ++accepted;
  expect_same_register(r, reg, line.substr(0, 200));
  std::string padded = line;
  padded.insert(padded.rfind('}'), ",\"dom_only\":0");
  ASSERT_EQ(streamed.request(line), dom.request(padded)) << line.substr(0, 200);
}

TEST(CodecDifferential, RegisterCellScannerMatchesSlowPath) {
  CellLineGen gen(20261018);
  RequestCodec codec;
  Service streamed, dom;
  const std::size_t max_cells = streamed.options().max_register_cells;
  std::size_t accepted = 0, large = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    // Mostly small arrays, whose every cell sits near the line's end;
    // one line in ten a 64x64, thousands of tokens through the scanner.
    const bool big = iter % 10 == 0;
    const std::size_t rows = big ? 64 : 1 + gen.below(4);
    const std::size_t cols = big ? 64 : 1 + gen.below(4);
    // rows * cols is the element count, or off by one now and then.
    std::size_t count = rows * cols;
    if (gen.pct(8)) count = gen.pct(50) ? count + 1 : count - 1;
    const std::string line = gen.line(rows, cols, count);
    const std::size_t before = accepted;
    check_cell_line(codec, streamed, dom, line, max_cells, accepted);
    if (HasFatalFailure()) return;
    if (big && accepted > before) ++large;
  }
  // Vacuous if the scanner refuses the lines it exists for.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(large, 200u);
}

TEST(CodecDifferential, RegisterCellCountAtTheGuard) {
  // Element counts at max_register_cells and one above, with the size
  // hint exact, the hint disagreeing with the count, and no hint.
  constexpr std::size_t kMax = 64;
  ServiceOptions opts;
  opts.max_register_cells = kMax;
  Service streamed(opts), dom(opts);
  RequestCodec codec;
  CellLineGen gen(7);
  std::size_t accepted = 0;
  for (const std::size_t count : {kMax - 1, kMax, kMax + 1}) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{8}}) {
      for (const std::size_t cols : {kMax / rows, count / rows}) {
        for (int rep = 0; rep < 20; ++rep) {
          const std::string line = gen.line(rows, cols, count);
          check_cell_line(codec, streamed, dom, line, kMax, accepted);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(accepted, 100u);
}

TEST(CodecDifferential, AcceptsTheFormsTheFastPathExistsFor) {
  RequestCodec codec;
  FastQuery q;
  // Shuffled keys, whitespace, escaped string VALUES, duplicate keys,
  // unicode escapes, doubles -- all must be accepted and agree with the
  // slow path.
  const char* kLines[] = {
      "{\"op\":\"rowmin\",\"array\":0,\"row\":3}",
      "{ \"row\" : 3 , \"array\" : 0 , \"op\" : \"rowmin\" , \"id\" : 9 }",
      "{\"op\":\"string_edit\",\"x\":\"a\\nb\",\"y\":\"\\u00e9\\t\"}",
      "{\"op\":\"rowmin\",\"row\":1,\"row\":2,\"array\":0}",
      "{\"op\":\"rowmin\",\"array\":0,\"row\":1e2}",
      "{\"op\":\"rowmin\",\"nested\":{\"b\":[1,2,{\"z\":null}],\"a\":true}}",
      "{\"op\":\"rowmin\",\"neg\":-0.5,\"big\":9223372036854775807}",
  };
  for (const char* line : kLines) {
    ASSERT_TRUE(codec.canonicalize_query(line, q)) << line;
    const Request r = serve::parse_request(line);
    EXPECT_EQ(q.signature, r.signature) << line;
    EXPECT_EQ(q.id, r.id) << line;
  }
  // Register lines: any key order, whitespace, every int64 token form,
  // and lines the register checks will reject (they run after decoding).
  const char* kRegisters[] = {
      R"({"id":1,"rows":2,"cols":3,"data":[1,2,4,0,1,3],"op":"register_dense"})",
      R"({"data":[5,1,7,4,0,6],"cols":3,"op":"register_dense","rows":2})",
      " { \"op\" : \"register_dense\" ,\t\"rows\" : 1 , \"cols\" : 2 , "
      "\"data\" : [ 3 ,\n1 ] , \"validate\" : true } ",
      R"({"op":"register_dense","rows":01,"cols":3,"data":[-0,9223372036854775807,-9223372036854775808]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"kind":"weird","validate":false})",
      R"({"op":"register_staircase","id":-9223372036854775808,"rows":2,"cols":2,"data":[1,2,3,4],"frontier":[2,1]})",
      R"({"op":"register_staircase","rows":0,"cols":2,"data":[],"frontier":[]})",
      R"({"op":"register_dense","rows":4294967296,"cols":4294967296,"data":[]})",
  };
  for (const char* line : kRegisters) {
    RegisterLine reg;
    ASSERT_TRUE(codec.decode_register(line, 1 << 24, reg)) << line;
    expect_same_register(serve::parse_request(line), reg, line);
  }
}

TEST(CodecDifferential, RefusesWhatItCannotPromise) {
  RequestCodec codec;
  FastQuery q;
  const char* kLines[] = {
      "{\"op\":\"rowmin\",\"deadline_ms\":5}",   // admission semantics
      "{\"op\":\"rowmin\",\"trace_id\":1}",      // observability envelope
      "{\"array\":0}",                           // no op
      "{\"op\":1}",                              // non-string op
      "{\"op\":\"row\\u006din\"}",               // escaped op value
      "{\"e\\\\s\":1,\"op\":\"rowmin\"}",        // escaped object key
      "{\"op\":\"rowmin\"} trailing",            // trailing bytes
      "{\"op\":\"rowmin\"",                      // truncated
      "[1,2,3]",                                 // not an object
      "",                                        // empty
  };
  for (const char* line : kLines) {
    EXPECT_FALSE(codec.canonicalize_query(line, q)) << line;
  }
  // Ops that are never cached hits: control ops, wherever "op" sits in
  // the line, and explain.
  std::string data;
  for (int i = 0; i < 64 * 64; ++i) data += (i ? "," : "") + std::to_string(i);
  const std::string fields =
      R"("id":1,"rows":64,"cols":64,"data":[)" + data + "]";
  const std::string control_lines[] = {
      R"({"op":"register_dense",)" + fields + "}",
      "{" + fields + R"(,"op":"register_dense"})",
      R"({"op":"explain","id":2,"query":{"op":"rowmin","array":0,"row":1}})",
  };
  for (const std::string& line : control_lines) {
    EXPECT_FALSE(codec.canonicalize_query(line, q)) << line.substr(0, 64);
    EXPECT_NO_THROW(serve::parse_request(line));
  }
  // Register lines the decoder cannot vouch for: the DOM path answers
  // them, with bytes pinned by tests/golden/register.txt.
  const std::string register_refusals[] = {
      R"({"op":"register_dense","rows":1,"cols":1,"data":[9223372036854775808]})",
      R"({"op":"register_dense","rows":1,"cols":1,"data":[-9223372036854775809]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2.5]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,1e2]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,"2"]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[[1],2]})",
      R"({"op":"register_dense","rows":1e0,"cols":1,"data":[1]})",
      R"({"op":"register_dense","rows":1,"cols":2,"d\u0061ta":[1,2]})",
      R"({"op":"register\u005fdense","rows":1,"cols":2,"data":[1,2]})",
      R"({"op":"register_dense","rows":1,"rows":1,"cols":2,"data":[1,2]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"seed":1})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"deadline_ms":5})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"trace_id":5})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"validate":1})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"kind":5})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"kind":"mon\u0067e"})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2],"frontier":[2]})",
      R"({"op":"register_staircase","rows":1,"cols":2,"data":[1,2],"frontier":[2],"kind":"monge"})",
      R"({"op":"register_dense","cols":2,"data":[1,2]})",
      R"({"op":"register_staircase","rows":1,"cols":2,"data":[1,2]})",
      R"({"op":"register_dense","id":"1","rows":1,"cols":2,"data":[1,2]})",
      R"({"op":"register_random","rows":1,"cols":2})",
      R"({"op":"rowmin","rows":1,"cols":2,"data":[3,4],"op":"register_dense"})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,)",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2]} trailing)",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[- 1,2]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1,2,]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[+1,2]})",
      R"({"op":"register_dense","rows":1,"cols":2,"data":[1 2]})",
  };
  for (const std::string& line : register_refusals) {
    RegisterLine reg;
    EXPECT_FALSE(codec.decode_register(line, 1 << 24, reg)) << line;
  }
  // More cells than the register guard allows.
  RegisterLine reg;
  EXPECT_FALSE(codec.decode_register(
      R"({"op":"register_dense","rows":1,"cols":5,"data":[1,2,3,4,5]})", 4,
      reg));
  // Not a register op.
  EXPECT_FALSE(codec.decode_register(control_lines[2], 1 << 24, reg));

  // Nesting deeper than the guard.
  std::string deep = "{\"op\":\"rowmin\",\"v\":";
  for (int i = 0; i < 80; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += "]";
  deep += "}";
  EXPECT_FALSE(codec.canonicalize_query(deep, q));
}

// --------------------------------------------------------------------------
// 2. Fast/slow response byte-identity
// --------------------------------------------------------------------------

std::vector<std::string> transcript_requests() {
  std::vector<std::string> lines = {
      R"({"op":"ping","id":1})",
      R"({"op":"register_dense","id":2,"rows":2,"cols":3,"data":[1,2,4,0,1,3],"validate":true})",
      R"({"op":"rowmin","id":3,"array":0,"row":0})",
      R"({"op":"rowmin","id":4,"array":0,"row":1})",
      R"({"op":"rowmax","id":5,"array":0,"row":0})",
      R"({"op":"string_edit","id":7,"x":"kitten","y":"sitting"})",
      R"({"op":"rowmin","array":0,"row":0})",  // no id
      R"({ "row" : 0 , "array" : 0 , "op" : "rowmin" , "id" : 44 })",
      R"({"op":"rowmin","id":45,"array":7,"row":0})",  // unknown array
      R"({"op":"nonsense","id":46})",                  // unknown op
  };
  // Cache-hitting repeats (the fast path's whole reason to exist).
  for (int rep = 0; rep < 3; ++rep) {
    lines.push_back(R"({"op":"rowmin","id":3,"array":0,"row":0})");
    lines.push_back(R"({"op":"rowmax","id":5,"array":0,"row":0})");
    lines.push_back(R"({"op":"string_edit","id":7,"x":"kitten","y":"sitting"})");
  }
  // Invalidation, then the same query again (cold both sides).
  lines.push_back(R"({"op":"unregister","id":50,"array":0})");
  lines.push_back(R"({"op":"rowmin","id":51,"array":0,"row":0})");
  return lines;
}

TEST(CodecFastSlow, ResponsesByteIdenticalWithFastPathOnAndOff) {
  ServiceOptions on;
  ServiceOptions off;
  off.fast_path = false;
  Service svc_on(on), svc_off(off);
  for (const std::string& line : transcript_requests()) {
    const std::string a = svc_on.request(line);
    const std::string b = svc_off.request(line);
    EXPECT_EQ(a, b) << "request: " << line;
  }
  // The fast service really did take the fast path for the repeats.
  const auto hits = svc_on.cache_stats().hits;
  EXPECT_GE(hits, 9u);
}

// --------------------------------------------------------------------------
// 3. The allocation gate
// --------------------------------------------------------------------------

TEST(CodecAllocGate, WarmCachedHitAllocatesNothing) {
  Service svc;
  ASSERT_TRUE(svc.request(
                     R"({"op":"register_dense","id":1,"rows":2,"cols":3,"data":[1,2,4,0,1,3]})")
                  .find("\"ok\":true") != std::string::npos);
  const std::string query = R"({"op":"rowmin","id":9,"array":0,"row":0})";
  const std::string expect = svc.request(query);  // computes + caches
  ASSERT_NE(expect.find("\"ok\":true"), std::string::npos);

  std::string out;
  // Warm this thread's codec buffers and the output string.
  for (int i = 0; i < 3; ++i) {
    out.clear();
    ASSERT_TRUE(svc.try_serve_fast(query, out));
    EXPECT_EQ(out, expect);
  }

  const std::uint64_t before = t_news;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    ASSERT_TRUE(svc.try_serve_fast(query, out));
  }
  const std::uint64_t after = t_news;
  EXPECT_EQ(after - before, 0u)
      << "warm cached-hit fast path allocated " << (after - before)
      << " times over 1000 requests";
  EXPECT_EQ(out, expect);
}

// --------------------------------------------------------------------------
// 4. Concurrency hammer (TSan leg)
// --------------------------------------------------------------------------

TEST(CodecHammer, EightThreadsCachedHitsStayCorrect) {
  Service svc;
  svc.request(
      R"({"op":"register_dense","id":1,"rows":4,"cols":4,"data":[0,1,2,3,1,2,3,4,2,3,4,5,3,4,5,6]})");
  std::vector<std::string> queries, expected;
  for (int row = 0; row < 4; ++row) {
    queries.push_back("{\"op\":\"rowmin\",\"array\":0,\"row\":" +
                      std::to_string(row) + "}");
    expected.push_back(svc.request(queries.back()));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::string out;
      for (int i = 0; i < 2000; ++i) {
        const std::size_t qi = static_cast<std::size_t>(i + t) % queries.size();
        out.clear();
        if (svc.try_serve_fast(queries[qi], out)) {
          if (out != expected[qi]) failures.fetch_add(1);
        } else if (svc.request(queries[qi]) != expected[qi]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace pmonge
