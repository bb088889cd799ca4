// Serve-layer tests: canonical JSON, the sharded LRU result cache, the
// bounded admission queue, and the Service end to end -- correctness
// against sequential oracles, the bit-identical determinism guarantee
// (thread count x coalescing x cache state), backpressure and deadlines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "apps/string_edit.hpp"
#include "exec/thread_pool.hpp"
#include "monge/brute.hpp"
#include "monge/generators.hpp"
#include "plan/cost_model.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

namespace pmonge::serve {
namespace {

struct ThreadGuard {
  std::size_t saved = exec::num_threads();
  ~ThreadGuard() { exec::set_num_threads(saved); }
};

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"b":[1,2.5,"x",null,true],"a":{"nested":-7},"s":"é\n\"q\""})";
  const Json j = Json::parse(text);
  // Canonical: keys sorted, no whitespace, stable under re-parse.
  const std::string d1 = j.dump();
  const std::string d2 = Json::parse(d1).dump();
  EXPECT_EQ(d1, d2);
  EXPECT_LT(d1.find("\"a\""), d1.find("\"b\""));
  EXPECT_EQ(j.at("a").at("nested").as_int(), -7);
  EXPECT_EQ(j.at("b").arr().size(), 5u);
  EXPECT_DOUBLE_EQ(j.at("b").arr()[1].as_double(), 2.5);
}

TEST(Json, RejectsGarbage) {
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
}

TEST(Json, IntegerPrecisionPreserved) {
  const std::int64_t big = 9007199254740993LL;  // not double-representable
  Json::Obj o;
  o["v"] = big;
  const Json j = Json::parse(Json(std::move(o)).dump());
  EXPECT_EQ(j.at("v").as_int(), big);
}

// ---------------------------------------------------------------------------
// ShardedLruCache
// ---------------------------------------------------------------------------

TEST(Cache, HitMissCountersAndEviction) {
  ShardedLruCache cache(4, 1);  // single shard: exact LRU semantics
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", "1");
  cache.put("b", "2");
  cache.put("c", "3");
  cache.put("d", "4");
  EXPECT_EQ(cache.get("a"), "1");  // refreshes a's recency
  cache.put("e", "5");             // evicts b, the least recent
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.get("a"), "1");
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 5u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 4u);
}

TEST(Cache, PutRefreshesExistingKey) {
  ShardedLruCache cache(2, 1);
  cache.put("a", "1");
  cache.put("b", "2");
  cache.put("a", "1'");  // refresh, not a new entry
  cache.put("c", "3");   // evicts b
  EXPECT_EQ(cache.get("a"), "1'");
  EXPECT_FALSE(cache.get("b").has_value());
}

TEST(Cache, TagInvalidationDropsExactlyTaggedEntries) {
  ShardedLruCache cache(16, 2);
  cache.put_tagged("q0", "r0", {7});
  cache.put_tagged("q1", "r1", {7, 9});
  cache.put_tagged("q2", "r2", {9});
  cache.put("q3", "r3");  // untagged: immune to invalidation
  EXPECT_EQ(cache.invalidate_tag(7), 2u);  // q0 and q1
  EXPECT_FALSE(cache.get("q0").has_value());
  EXPECT_FALSE(cache.get("q1").has_value());
  EXPECT_EQ(cache.get("q2"), "r2");
  EXPECT_EQ(cache.get("q3"), "r3");
  EXPECT_EQ(cache.invalidate_tag(7), 0u);  // idempotent
  EXPECT_EQ(cache.invalidate_tag(9), 1u);  // q2 only
  EXPECT_EQ(cache.stats().invalidations, 3u);
}

TEST(Cache, ZeroCapacityDisables) {
  ShardedLruCache cache(0, 8);
  EXPECT_FALSE(cache.enabled());
  cache.put("a", "1");
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Cache, ConcurrentHammerIsConsistent) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  ShardedLruCache cache(64, 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> ts;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&cache, &bad, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 96);
        const std::string val = "v" + std::to_string((t * 7 + i) % 96);
        if (auto got = cache.get(key)) {
          if (*got != val) bad.fetch_add(1);  // value must match its key
        } else {
          cache.put(key, val);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0);
  const CacheStats s = cache.stats();
  EXPECT_LE(s.entries, 64u + 8u);  // per-shard rounding slack
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads * kOps));
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

TEST(Admission, OverflowRejectsExplicitly) {
  AdmissionQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), AdmitResult::Admitted);
  EXPECT_EQ(q.try_push(2), AdmitResult::Admitted);
  EXPECT_EQ(q.try_push(3), AdmitResult::Overloaded);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.overloaded(), 1u);
  auto batch = q.try_pop_batch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].item, 1);  // FIFO
  EXPECT_EQ(batch[1].item, 2);
  EXPECT_EQ(q.try_push(4), AdmitResult::Admitted);  // space freed
}

TEST(Admission, ExpiredItemsPopFlaggedNotDropped) {
  AdmissionQueue<int> q(4);
  q.try_push(1, ServeClock::now() - std::chrono::milliseconds(1));
  q.try_push(2);  // no deadline
  auto batch = q.try_pop_batch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].expired);
  EXPECT_FALSE(batch[1].expired);
}

TEST(Admission, StopDrainsThenReturnsEmpty) {
  AdmissionQueue<int> q(4);
  q.try_push(1);
  q.try_push(2);
  q.stop();
  EXPECT_EQ(q.pop_batch(1).size(), 1u);
  EXPECT_EQ(q.pop_batch(10).size(), 1u);
  EXPECT_TRUE(q.pop_batch(10).empty());  // drained; no block
}

TEST(Admission, PauseHoldsPoppersNotProducers) {
  AdmissionQueue<int> q(8);
  q.pause(true);
  q.try_push(1);
  q.try_push(2);
  EXPECT_TRUE(q.try_pop_batch(10).empty());  // held
  std::thread popper([&q] {
    auto batch = q.pop_batch(10);  // blocks until resume
    EXPECT_EQ(batch.size(), 2u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.pause(false);
  popper.join();
  q.stop();
}

TEST(Admission, ConcurrentProducersNeverLoseItems) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  AdmissionQueue<int> q(1u << 16);
  constexpr int kThreads = 8;
  constexpr int kItems = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&q] {
      for (int i = 0; i < kItems; ++i) ASSERT_EQ(q.try_push(i),
                                                 AdmitResult::Admitted);
    });
  }
  std::atomic<int> popped{0};
  std::thread consumer([&q, &popped] {
    while (true) {
      auto batch = q.pop_batch(64);
      if (batch.empty()) return;
      popped.fetch_add(static_cast<int>(batch.size()));
    }
  });
  for (auto& th : ts) th.join();
  q.stop();
  consumer.join();
  EXPECT_EQ(popped.load(), kThreads * kItems);
}

// ---------------------------------------------------------------------------
// Service end to end
// ---------------------------------------------------------------------------

std::string reg_random(Service& svc, std::size_t rows, std::size_t cols,
                       std::uint64_t seed, const char* kind = "monge") {
  Json::Obj o;
  o["op"] = "register_random";
  o["rows"] = rows;
  o["cols"] = cols;
  o["seed"] = seed;
  o["kind"] = kind;
  return svc.request(Json(std::move(o)).dump());
}

std::int64_t result_int(const std::string& resp, const char* key) {
  const Json j = Json::parse(resp);
  EXPECT_TRUE(j.at("ok").as_bool()) << resp;
  return j.at("result").at(key).as_int();
}

TEST(Service, RowMinimaMatchBruteForce) {
  Service svc;
  ASSERT_EQ(result_int(reg_random(svc, 24, 31, 5), "array"), 0);
  Rng rng(5);
  const auto a = monge::random_monge(24, 31, rng);  // same seed => same array
  const auto brute = monge::row_minima_brute(a);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    Json::Obj o;
    o["op"] = "rowmin";
    o["array"] = 0;
    o["row"] = i;
    const std::string resp = svc.request(Json(std::move(o)).dump());
    const auto expect = brute[i];
    EXPECT_EQ(result_int(resp, "value"), expect.value) << "row " << i;
    EXPECT_EQ(result_int(resp, "col"),
              static_cast<std::int64_t>(expect.col))
        << "row " << i;
  }
}

TEST(Service, StringEditMatchesSequential) {
  Service svc;
  Json::Obj o;
  o["op"] = "string_edit";
  o["x"] = "kitten";
  o["y"] = "sitting";
  const std::string resp = svc.request(Json(std::move(o)).dump());
  const auto expect =
      apps::edit_distance_seq("kitten", "sitting", apps::EditCosts{});
  EXPECT_EQ(result_int(resp, "cost"), expect.cost);
}

TEST(Service, ErrorsAreExplicit) {
  Service svc;
  EXPECT_NE(svc.request("this is not json").find("parse_error"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":77,"row":0})")
                .find("unknown_array"),
            std::string::npos);
  reg_random(svc, 8, 8, 1);
  EXPECT_NE(
      svc.request(R"({"op":"rowmin","array":0,"row":99})").find("out of range"),
      std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"bogus"})").find("unknown_op"),
            std::string::npos);
}

TEST(Service, UnregisterForgets) {
  Service svc;
  reg_random(svc, 8, 8, 1);
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":0,"row":0})").find("ok"),
            std::string::npos);
  const Json r =
      Json::parse(svc.request(R"({"op":"unregister","array":0})"));
  EXPECT_TRUE(r.at("result").at("removed").as_bool());
  EXPECT_GE(r.at("result").at("cache_invalidated").as_int(), 1);
  // Regression: the cached signature from before the unregister must NOT
  // resurrect the array -- unregister invalidates every cache entry tagged
  // with the array id, so the exact same request misses and fails fresh.
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":0,"row":0})")
                .find("unknown_array"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":0,"row":1})")
                .find("unknown_array"),
            std::string::npos);
}

TEST(Service, UnregisterInvalidatesTubeOperandEntries) {
  Service svc;
  // Compatible pair: d is 8x6, e is 6x8 (tube needs d.cols == e.rows).
  ASSERT_EQ(result_int(reg_random(svc, 8, 6, 21), "array"), 0);
  ASSERT_EQ(result_int(reg_random(svc, 6, 8, 22), "array"), 1);
  const std::string q = R"({"op":"tubemax","d":0,"e":1,"i":2,"k":3})";
  EXPECT_NE(svc.request(q).find("\"ok\":true"), std::string::npos);
  // Unregistering EITHER operand must kill the cached composite answer.
  const Json r = Json::parse(svc.request(R"({"op":"unregister","array":1})"));
  EXPECT_TRUE(r.at("result").at("removed").as_bool());
  EXPECT_GE(r.at("result").at("cache_invalidated").as_int(), 1);
  EXPECT_NE(svc.request(q).find("unknown_array"), std::string::npos);
}

/// Run a mixed workload and return all response lines, in request order.
std::vector<std::string> run_workload(Service& svc) {
  std::vector<std::string> lines;
  lines.push_back(
      R"({"op":"register_random","rows":40,"cols":33,"seed":11})");
  lines.push_back(
      R"({"op":"register_random","rows":20,"cols":20,"seed":12,"kind":"inverse_monge"})");
  lines.push_back(
      R"({"op":"register_random","rows":24,"cols":18,"seed":13,"kind":"staircase"})");
  lines.push_back(
      R"({"op":"register_random","rows":16,"cols":12,"seed":14})");
  lines.push_back(
      R"({"op":"register_random","rows":12,"cols":10,"seed":15})");
  std::vector<std::string> out;
  for (const auto& l : lines) out.push_back(svc.request(l));
  // Array ids: 0 monge 40x33, 1 inverse 20x20, 2 staircase 24x18,
  // 3 monge 16x12, 4 monge 12x10.  (3,4) do not compose; use (3,3)? no --
  // tube needs d.cols == e.rows, so register a compatible pair.
  out.push_back(svc.request(
      R"({"op":"register_random","rows":12,"cols":9,"seed":16})"));  // id 5
  std::vector<std::string> queries;
  for (int row = 0; row < 12; ++row) {
    queries.push_back(R"({"op":"rowmin","array":0,"row":)" +
                      std::to_string(row) + "}");
    queries.push_back(R"({"op":"rowmax","array":1,"row":)" +
                      std::to_string(row % 20) + "}");
    queries.push_back(R"({"op":"staircase_rowmin","array":2,"row":)" +
                      std::to_string(row % 24) + "}");
    queries.push_back(R"({"op":"tubemax","d":3,"e":5,"i":)" +
                      std::to_string(row % 16) + R"(,"k":)" +
                      std::to_string(row % 9) + "}");
  }
  queries.push_back(R"({"op":"string_edit","x":"abcdef","y":"azced"})");
  queries.push_back(
      R"({"op":"largest_rect","points":[[0,0],[9,9],[2,7],[6,3],[4,4]]})");
  // A negative operand id and a missing one must land in different
  // groups: each answers its own error whether or not they coalesce.
  queries.push_back(R"({"op":"rowmin","id":1,"array":-1,"row":0})");
  queries.push_back(R"({"op":"rowmin","id":2,"row":0})");
  queries.push_back(R"({"op":"tubemax","id":3,"d":-1,"e":5,"i":0,"k":0})");
  queries.push_back(R"({"op":"tubemax","id":4,"e":5,"i":0,"k":0})");
  queries.push_back(R"({"op":"tubemin","id":5,"d":3,"e":-1,"i":0,"k":0})");
  queries.push_back(R"({"op":"tubemin","id":6,"d":3,"i":0,"k":0})");
  svc.pause();  // accumulate so coalescing actually sees a batch
  std::vector<std::future<std::string>> futs;
  for (const auto& q : queries) futs.push_back(svc.submit(q));
  svc.resume();
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

TEST(Service, ResponsesBitIdenticalAcrossThreadsBatchingAndCache) {
  ThreadGuard tg;
  std::vector<std::vector<std::string>> runs;
  // Profile 0: builtin.  Profile 1: parallel dispatch priced absurdly high,
  // so the planner routes everything to brute / sequential.  Profile 2:
  // parallel priced near free, so the planner always picks the kernel.
  // Responses must not depend on which variant actually ran.
  plan::CostProfile profiles[3] = {plan::builtin_profile(),
                                   plan::builtin_profile(),
                                   plan::builtin_profile()};
  profiles[1].id = "test-all-serial";
  profiles[1].par_dispatch_ns = 1e12;
  profiles[2].id = "test-all-parallel";
  profiles[2].par_dispatch_ns = 0;
  profiles[2].par_ns_per_work = 1e-6;
  profiles[2].par_depth_ns = 0;
  struct Config {
    std::size_t threads;
    bool coalesce;
    std::size_t cache;
    bool planner;
    int profile;
  };
  const Config configs[] = {
      {1, true, 4096, true, 0},  {8, true, 4096, true, 0},
      {8, false, 4096, true, 0}, {8, true, 0, true, 0},
      {8, true, 4096, false, 0}, {8, true, 4096, true, 1},
      {8, true, 4096, true, 2},  {8, false, 0, true, 1},
  };
  for (const Config& c : configs) {
    exec::set_num_threads(c.threads);
    ServiceOptions opts;
    opts.coalesce = c.coalesce;
    opts.cache_capacity = c.cache;
    opts.planner = c.planner;
    opts.profile = profiles[c.profile];
    Service svc(opts);
    runs.push_back(run_workload(svc));
    // Warm second pass inside the same service: the result cache and the
    // plan cache are both hot now, and the bytes must still match.
    Service svc2(opts);
    auto first = run_workload(svc2);
    EXPECT_EQ(first, runs.back());
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], runs[0]) << "config " << i << " diverged";
  }
}

TEST(Service, CacheHitsAreServedAndCounted) {
  Service svc;
  reg_random(svc, 16, 16, 3);
  const std::string q = R"({"op":"rowmin","array":0,"row":4})";
  const std::string r1 = svc.request(q);
  const std::string r2 = svc.request(q);
  EXPECT_EQ(r1, r2);
  const CacheStats s = svc.cache_stats();
  EXPECT_GE(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  // Different id / deadline must not defeat the cache (signature strips
  // them) and must not leak into the response of the other request.
  const std::string r3 =
      svc.request(R"({"op":"rowmin","array":0,"id":9,"row":4})");
  EXPECT_GE(svc.cache_stats().hits, 2u);
  EXPECT_NE(r3.find("\"id\":9"), std::string::npos);
}

TEST(Service, OverloadRejectsInsteadOfHangingOrDropping) {
  ServiceOptions opts;
  opts.queue_capacity = 4;
  opts.cache_capacity = 0;  // every request must reach the queue
  Service svc(opts);
  reg_random(svc, 16, 16, 3);
  svc.pause();  // hold the worker so the queue genuinely fills
  std::vector<std::future<std::string>> futs;
  constexpr std::size_t kSubmitted = 32;
  for (std::size_t i = 0; i < kSubmitted; ++i) {
    futs.push_back(svc.submit(R"({"op":"rowmin","array":0,"id":)" +
                              std::to_string(i) + R"(,"row":)" +
                              std::to_string(i % 16) + "}"));
  }
  svc.resume();
  std::size_t ok = 0, overloaded = 0;
  for (auto& f : futs) {
    const std::string resp = f.get();  // every future resolves: no drops
    if (resp.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(resp.find("overloaded"), std::string::npos) << resp;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kSubmitted);
  EXPECT_GE(ok, 4u);          // everything admitted was answered
  EXPECT_GE(overloaded, 1u);  // and the excess was rejected, not dropped
}

TEST(Service, ExpiredDeadlinesAnswerDeadlineExpired) {
  ServiceOptions opts;
  opts.cache_capacity = 0;
  Service svc(opts);
  reg_random(svc, 8, 8, 1);
  svc.pause();
  // The deadline is generous versus the predicted cost (so admission lets
  // it through) but expires while the worker is paused.
  auto fut = svc.submit(
      R"({"op":"rowmin","array":0,"row":0,"deadline_ms":20})");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  svc.resume();
  const std::string resp = fut.get();
  EXPECT_NE(resp.find("deadline_expired"), std::string::npos) << resp;
}

TEST(Service, UnmeetableDeadlinesRejectedAtAdmission) {
  ServiceOptions opts;
  opts.cache_capacity = 0;
  Service svc(opts);
  reg_random(svc, 64, 64, 1);
  svc.pause();  // the worker never runs: rejection must happen before it
  auto fut = svc.submit(
      R"({"op":"rowmin","array":0,"row":0,"deadline_ms":0})");
  const std::string resp = fut.get();  // resolves while still paused
  EXPECT_NE(resp.find("deadline_unmeetable"), std::string::npos) << resp;
  const Json stats =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  const Json& rowmin = stats.at("endpoints").at("rowmin");
  EXPECT_EQ(rowmin.at("unmeetable").as_int(), 1);
  EXPECT_EQ(rowmin.at("requests").as_int(), 0);  // never entered the engine
  svc.resume();
}

TEST(Service, ConcurrentSubmittersGetConsistentAnswers) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  Service svc;
  reg_random(svc, 32, 32, 9);
  Rng rng(9);
  const auto a = monge::random_monge(32, 32, rng);
  const auto expect = monge::row_minima_brute(a);
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&svc, &expect, &bad, t] {
      for (int i = 0; i < 64; ++i) {
        const std::size_t row = static_cast<std::size_t>((t * 13 + i) % 32);
        const std::string resp = svc.request(
            R"({"op":"rowmin","array":0,"row":)" + std::to_string(row) + "}");
        const Json j = Json::parse(resp);
        if (!j.at("ok").as_bool() ||
            j.at("result").at("value").as_int() != expect[row].value ||
            j.at("result").at("col").as_int() !=
                static_cast<std::int64_t>(expect[row].col)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Service, StatsReportsCountersAndQueue) {
  // Planner off: the fixed parallel dispatch always charges PRAM work,
  // which is what the `charged` section of stats reports.
  ServiceOptions opts;
  opts.planner = false;
  Service svc(opts);
  reg_random(svc, 8, 8, 1);
  svc.request(R"({"op":"rowmin","array":0,"row":0})");
  svc.request(R"({"op":"rowmin","array":0,"row":0})");
  const Json stats =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  const Json& rowmin = stats.at("endpoints").at("rowmin");
  EXPECT_EQ(rowmin.at("requests").as_int(), 2);
  EXPECT_EQ(rowmin.at("ok").as_int(), 2);
  EXPECT_GE(rowmin.at("cache_hits").as_int(), 1);
  EXPECT_EQ(stats.at("registry").at("arrays").as_int(), 1);
  EXPECT_EQ(stats.at("queue").at("capacity").as_int(), 1024);
  EXPECT_GE(stats.at("charged").at("work").as_int(), 1);
}

TEST(Service, RegisterValidateRejectsNonMonge) {
  Service svc;
  // 2x2 anti-Monge array: a[0][0]+a[1][1] > a[0][1]+a[1][0].
  const std::string resp = svc.request(
      R"({"op":"register_dense","rows":2,"cols":2,"data":[5,0,0,0],"validate":true})");
  EXPECT_NE(resp.find("not_monge"), std::string::npos) << resp;
  const std::string ok = svc.request(
      R"({"op":"register_dense","rows":2,"cols":2,"data":[0,0,0,0],"validate":true})");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
}

}  // namespace
}  // namespace pmonge::serve
