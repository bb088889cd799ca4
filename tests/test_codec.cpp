// The zero-allocation serve fast path (serve/codec.hpp, docs/
// performance.md), tested from four sides:
//
//   1. Differential fuzz: for every line the streaming canonicalizer
//      ACCEPTS, its signature / op / id must be byte-identical to what
//      the slow path (parse_request) computes.  Refusal is always legal;
//      acceptance is the claim under test.  A coverage check keeps the
//      fuzz honest (the codec must actually accept the forms the fast
//      path exists for -- whitespace, shuffled keys, escapes).
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

namespace pmonge {
namespace {

using serve::FastQuery;
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
    if (pct(10)) return mutate(object_line());
    return object_line();
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

TEST(CodecDifferential, AcceptedLinesMatchSlowPathExactly) {
  LineGen gen(20260809);
  RequestCodec codec;
  std::size_t accepted = 0, slow_ok_count = 0;
  for (int iter = 0; iter < 60000; ++iter) {
    const std::string line = gen.next();
    FastQuery q;
    const bool fast_ok = codec.canonicalize_query(line, q);
    Request r;
    bool slow_ok = true;
    try {
      r = serve::parse_request(line);
    } catch (...) {
      slow_ok = false;
    }
    if (slow_ok) ++slow_ok_count;
    if (!fast_ok) continue;  // refusal is always legal
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
  // The fuzz is vacuous if the codec refuses everything interesting.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(slow_ok_count, accepted);
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
