// Inline answers: a cache miss the cost profile prices below one pool
// hand-off (CostProfile::par_dispatch_ns) is answered on the submitting
// thread instead of the admission queue (serve/service.hpp).
//
//   * routing: which misses are answered before submit_cb returns, how
//     lines submitted together share one hand-off's worth (InlineBudget),
//     and every state that must keep them queued (closed budget, paused
//     queue, tracing, armed faults, fast_path=false, planner off, a
//     request queued ahead), and deadline admission still coming first;
//   * differential: a seeded register/query/unregister stream answers
//     byte for byte the same inline (untraced) and queued (traced);
//   * concurrency: submitting threads answer inline while the worker runs
//     queued batches on the same arrays, with unregisters interleaved --
//     Batcher::run on two threads at once, for the TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "plan/cost_model.hpp"
#include "plan/planner.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

namespace pmonge::serve {
namespace {

using namespace std::chrono_literals;

constexpr const char* kRow = R"({"op":"rowmin","id":7,"array":0,"row":3})";

/// One submit_cb call, observed: whether the answer was given before the
/// call returned, and on which thread.
struct Observed {
  std::promise<std::string> resp;
  std::future<std::string> fut = resp.get_future();
  std::atomic<bool> answered{false};
  std::thread::id thread;
  bool answered_before_return = false;
};

void submit_observed(Service& svc, const std::string& line, Observed& o,
                     InlineBudget* budget = nullptr) {
  svc.submit_cb(
      line,
      [&o](std::string r) {
        o.thread = std::this_thread::get_id();
        o.answered.store(true);
        o.resp.set_value(std::move(r));
      },
      budget);
  o.answered_before_return = o.answered.load();
}

std::int64_t endpoint_count(Service& svc, const char* op, const char* key) {
  const Json s = Json::parse(svc.request(R"({"op":"stats"})"));
  const Json* e = s.at("result").at("endpoints").find(op);
  return e == nullptr ? 0 : e->at(key).as_int();
}

std::string reg_random(std::size_t rows, std::size_t cols, std::uint64_t seed,
                       const char* kind = "monge") {
  Json::Obj o;
  o["op"] = "register_random";
  o["rows"] = static_cast<std::int64_t>(rows);
  o["cols"] = static_cast<std::int64_t>(cols);
  o["seed"] = static_cast<std::int64_t>(seed);
  o["kind"] = kind;
  return Json(std::move(o)).dump();
}

/// The built-in profile with the pool hand-off priced at 2 us: a row
/// search of a 256x256 array (brute, 1.5 ns x 256 cells) is priced under
/// it, a submatrix search of the same array (sequential, 6 ns x 512
/// probes) over it.
plan::CostProfile two_us_dispatch() {
  plan::CostProfile p = plan::builtin_profile();
  p.id = "test-2us-dispatch";
  p.par_dispatch_ns = 2000;
  return p;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(InlineAnswers, CheapMissIsAnsweredBeforeSubmitReturns) {
  Service svc;
  ASSERT_NE(svc.request(reg_random(16, 16, 3)).find("\"ok\":true"),
            std::string::npos);
  Observed o;
  submit_observed(svc, kRow, o);
  EXPECT_TRUE(o.answered_before_return);
  EXPECT_EQ(o.thread, std::this_thread::get_id());
  const std::string resp = o.fut.get();
  EXPECT_NE(resp.find(R"({"id":7,"ok":true,"result":{"col":)"),
            std::string::npos)
      << resp;
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 1);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "requests"), 1);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "cache_misses"), 1);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "ok"), 1);
  // The tagged cache write happened: the same question is now a hit.
  EXPECT_EQ(svc.request(kRow), resp);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "cache_hits"), 1);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 1);
}

TEST(InlineAnswers, OnlyMissesPricedBelowTheHandOffRunInline) {
  ServiceOptions opts;
  opts.profile = two_us_dispatch();
  Service svc(opts);
  ASSERT_NE(svc.request(reg_random(256, 256, 5)).find("\"ok\":true"),
            std::string::npos);
  // The premise, read off the planner the service uses.
  const plan::Planner planner(opts.profile, true, 1);
  const double row_ns =
      planner.predicted_us({plan::OpClass::RowSearch, 256, 256, 1}) * 1000.0;
  const double sub_ns =
      planner.predicted_us({plan::OpClass::SubmatrixSearch, 256, 256, 1}) *
      1000.0;
  ASSERT_LT(row_ns, opts.profile.par_dispatch_ns);
  ASSERT_GE(sub_ns, opts.profile.par_dispatch_ns);

  Observed cheap;
  submit_observed(svc, kRow, cheap);
  EXPECT_TRUE(cheap.answered_before_return);
  Observed dear;
  submit_observed(
      svc,
      R"({"op":"submatrix_min","id":8,"array":0,"r0":1,"r1":200,"c0":3,"c1":250})",
      dear);
  const std::string resp = dear.fut.get();
  EXPECT_NE(resp.find(R"({"id":8,"ok":true)"), std::string::npos) << resp;
  EXPECT_NE(dear.thread, std::this_thread::get_id());
  EXPECT_EQ(endpoint_count(svc, "submatrix_min", "inline"), 0);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 1);
}

TEST(InlineAnswers, LinesSubmittedTogetherShareOneHandOff) {
  ServiceOptions opts;
  opts.profile = two_us_dispatch();
  Service svc(opts);
  ASSERT_NE(svc.request(reg_random(256, 256, 5)).find("\"ok\":true"),
            std::string::npos);
  const plan::Planner planner(opts.profile, true, 1);
  const double row_ns =
      planner.predicted_us({plan::OpClass::RowSearch, 256, 256, 1}) * 1000.0;
  // As many row searches as fit under one hand-off together.
  int fit = 0;
  while ((fit + 1) * row_ns < opts.profile.par_dispatch_ns) ++fit;
  ASSERT_GE(fit, 2);

  constexpr int kLines = 8;
  ASSERT_GT(kLines, fit);
  InlineBudget budget;
  std::vector<Observed> obs(kLines);
  for (int i = 0; i < kLines; ++i) {
    submit_observed(svc,
                    R"({"op":"rowmin","id":)" + std::to_string(i) +
                        R"(,"array":0,"row":)" + std::to_string(i) + "}",
                    obs[static_cast<std::size_t>(i)], &budget);
  }
  for (int i = 0; i < kLines; ++i) {
    Observed& o = obs[static_cast<std::size_t>(i)];
    EXPECT_EQ(o.answered_before_return, i < fit) << "line " << i;
    EXPECT_NE(o.fut.get().find("\"ok\":true"), std::string::npos);
  }
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), fit);

  // Without a shared budget each line gets a hand-off of its own.
  Observed alone;
  submit_observed(svc, R"({"op":"rowmin","id":9,"array":0,"row":9})", alone);
  EXPECT_TRUE(alone.answered_before_return);
}

TEST(InlineAnswers, ClosedBudgetAnswersNothingInline) {
  Service svc;
  ASSERT_NE(svc.request(reg_random(16, 16, 3)).find("\"ok\":true"),
            std::string::npos);
  InlineBudget closed;
  closed.open = false;
  Observed o;
  submit_observed(svc, kRow, o, &closed);
  EXPECT_NE(o.fut.get().find(R"({"id":7,"ok":true)"), std::string::npos);
  EXPECT_NE(o.thread, std::this_thread::get_id());
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 0);
}

/// Every state that must keep a cheap miss on the queued path.
enum class Hold { Paused, Tracing, FaultsArmed, NoFastPath, NoPlanner };

class InlineHeld : public ::testing::TestWithParam<Hold> {};

TEST_P(InlineHeld, CheapMissQueues) {
  const Hold hold = GetParam();
  ServiceOptions opts;
  opts.fast_path = hold != Hold::NoFastPath;
  opts.planner = hold != Hold::NoPlanner;
  Service svc(opts);
  const std::string expected = [&] {
    Service reference;
    reference.request(reg_random(16, 16, 3));
    return reference.request(kRow);
  }();
  ASSERT_NE(svc.request(reg_random(16, 16, 3)).find("\"ok\":true"),
            std::string::npos);

  struct Restore {
    ~Restore() {
      obs::set_enabled(false);
      obs::collect();
      fault::disarm();
    }
  } restore;
  switch (hold) {
    case Hold::Paused: svc.pause(); break;
    case Hold::Tracing: obs::set_enabled(true); break;
    case Hold::FaultsArmed: fault::arm(/*seed=*/7, /*rate_bp=*/0); break;
    case Hold::NoFastPath:
    case Hold::NoPlanner: break;
  }
  Observed o;
  submit_observed(svc, kRow, o);
  if (hold == Hold::Paused) {
    EXPECT_FALSE(o.answered_before_return);
    EXPECT_EQ(svc.queue_depth(), 1u);
    svc.resume();
  }
  EXPECT_EQ(o.fut.get(), expected);
  EXPECT_NE(o.thread, std::this_thread::get_id());
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 0);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "requests"), 1);
}

INSTANTIATE_TEST_SUITE_P(States, InlineHeld,
                         ::testing::Values(Hold::Paused, Hold::Tracing,
                                           Hold::FaultsArmed, Hold::NoFastPath,
                                           Hold::NoPlanner));

TEST(InlineAnswers, RequestQueuedAheadIsNotOvertaken) {
  ServiceOptions opts;
  opts.profile = two_us_dispatch();
  Service svc(opts);
  ASSERT_NE(svc.request(reg_random(256, 256, 5)).find("\"ok\":true"),
            std::string::npos);
  // A: a queued search whose callback holds the worker until released.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> a_running;
  std::promise<std::string> a_resp;
  svc.submit_cb(
      R"({"op":"submatrix_min","id":1,"array":0,"r0":0,"r1":99,"c0":0,"c1":99})",
      [&](std::string r) {
        a_running.set_value();
        released.wait();
        a_resp.set_value(std::move(r));
      });
  a_running.get_future().wait();
  // B waits in the queue behind the held worker; C, cheap, must not
  // overtake it.
  Observed b;
  submit_observed(
      svc,
      R"({"op":"submatrix_max","id":2,"array":0,"r0":0,"r1":99,"c0":0,"c1":99})",
      b);
  ASSERT_EQ(svc.queue_depth(), 1u);
  Observed c;
  submit_observed(svc, kRow, c);
  EXPECT_FALSE(c.answered_before_return);
  EXPECT_EQ(svc.queue_depth(), 2u);
  release.set_value();
  EXPECT_NE(a_resp.get_future().get().find(R"({"id":1,"ok":true)"),
            std::string::npos);
  EXPECT_NE(b.fut.get().find(R"({"id":2,"ok":true)"), std::string::npos);
  EXPECT_NE(c.fut.get().find(R"({"id":7,"ok":true)"), std::string::npos);
  EXPECT_NE(c.thread, std::this_thread::get_id());
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 0);
}

TEST(InlineAnswers, DeadlineAdmissionComesFirst) {
  // A deadline the plan cannot meet is still rejected at admission, and
  // one that can be met does not stop an inline answer.
  Service svc;
  ASSERT_NE(svc.request(reg_random(16, 16, 3)).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(
      svc.request(R"({"op":"rowmin","id":4,"array":0,"row":3,"deadline_ms":0})")
          .find(R"("error":"deadline_unmeetable: )"),
      std::string::npos);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 0);
  Observed o;
  submit_observed(
      svc, R"({"op":"rowmin","id":5,"array":0,"row":3,"deadline_ms":60000})",
      o);
  EXPECT_TRUE(o.answered_before_return);
  EXPECT_NE(o.fut.get().find(R"({"id":5,"ok":true)"), std::string::npos);
  EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 1);
}

// ---------------------------------------------------------------------------
// Differential: inline (untraced) vs queued (traced), byte for byte
// ---------------------------------------------------------------------------

/// A seeded stream over several sizes and every operand kind: registers,
/// row / staircase / submatrix / tube queries (some repeated, some out of
/// range, some on unregistered ids), edit distances, a geometric app and
/// unregisters.  Lines carry ids, so every response is distinguishable.
std::vector<std::string> churn_stream(std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  struct Live {
    std::int64_t id;
    std::size_t rows, cols;
    bool staircase;
  };
  std::vector<Live> live;
  std::vector<std::int64_t> dead;  // unregistered ids
  std::int64_t next_id = 0;
  std::vector<std::string> lines;
  const std::size_t sizes[] = {3, 8, 17, 64, 130, 257};
  std::int64_t rid = 0;
  const auto with_id = [&](std::string body) {
    return R"({"id":)" + std::to_string(++rid) + "," + body.substr(1);
  };
  const auto region = [&](const Live& a) {
    const std::size_t r0 = pick(a.rows), r1 = r0 + pick(a.rows - r0);
    const std::size_t c0 = pick(a.cols), c1 = c0 + pick(a.cols - c0);
    return R"(,"r0":)" + std::to_string(r0) + R"(,"r1":)" +
           std::to_string(r1) + R"(,"c0":)" + std::to_string(c0) +
           R"(,"c1":)" + std::to_string(c1) + "}";
  };
  for (int step = 0; step < 400; ++step) {
    const std::size_t roll = pick(100);
    const bool query = live.size() >= 2 && roll >= 13;
    if (live.size() < 2 || roll < 8) {
      const std::size_t rows = sizes[pick(std::size(sizes))];
      const std::size_t cols = sizes[pick(std::size(sizes))];
      const char* kinds[] = {"monge", "inverse_monge", "staircase"};
      const char* kind = kinds[pick(3)];
      lines.push_back(with_id(reg_random(rows, cols, rng() % 1000, kind)));
      live.push_back({next_id++, rows, cols, std::string(kind) == "staircase"});
    } else if (roll < 13) {
      const std::size_t k = pick(live.size());
      lines.push_back(with_id(R"({"op":"unregister","array":)" +
                              std::to_string(live[k].id) + "}"));
      dead.push_back(live[k].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (roll < 55) {
      const Live& a = live[pick(live.size())];
      const char* op = a.staircase ? (pick(2) ? "staircase_rowmin"
                                              : "staircase_rowmax")
                                   : (pick(2) ? "rowmin" : "rowmax");
      // A row one past the end now and then; an unregistered id now and
      // then (its answers may have been cached while it lived).
      const std::size_t row = pick(a.rows + 1);
      const std::int64_t id =
          pick(20) == 0 && !dead.empty() ? dead[pick(dead.size())] : a.id;
      lines.push_back(with_id(R"({"op":")" + std::string(op) +
                              R"(","array":)" + std::to_string(id) +
                              R"(,"row":)" + std::to_string(row) + "}"));
    } else if (roll < 75) {
      const Live& a = live[pick(live.size())];
      lines.push_back(with_id(std::string(R"({"op":")") +
                              (pick(2) ? "submatrix_min" : "submatrix_max") +
                              R"(","array":)" + std::to_string(a.id) +
                              region(a)));
    } else if (roll < 85) {
      // A tube over two live arrays, composable (d.cols == e.rows) when
      // the registry holds such a pair; other pairs and staircase
      // operands answer their per-request errors.
      const Live& d = live[pick(live.size())];
      const Live* e = &live[pick(live.size())];
      for (const Live& c : live) {
        if (c.rows == d.cols && !c.staircase && pick(2) == 0) e = &c;
      }
      lines.push_back(with_id(std::string(R"({"op":")") +
                              (pick(2) ? "tubemax" : "tubemin") +
                              R"(","d":)" + std::to_string(d.id) +
                              R"(,"e":)" + std::to_string(e->id) +
                              R"(,"i":)" + std::to_string(pick(d.rows)) +
                              R"(,"k":)" + std::to_string(pick(e->cols)) +
                              "}"));
    } else if (roll < 97) {
      // Edit distances from 1 to 128 characters: the short ones are
      // priced under the hand-off, the long ones over it.  (Past 128 the
      // planner may pick the metered parallel DP, which is slow under
      // TSan and adds nothing here.)
      const auto word = [&] {
        std::string w(1 + pick(128), 'a');
        for (char& ch : w) ch = static_cast<char>('a' + pick(4));
        return w;
      };
      lines.push_back(with_id(R"({"op":"string_edit","x":")" + word() +
                              R"(","y":")" + word() + R"("})"));
    } else {
      lines.push_back(with_id(
          R"({"op":"largest_rect","points":[[0,0],[9,9],[2,7],[6,3],[4,4]]})"));
    }
    if (query && pick(4) == 0) lines.push_back(lines.back());  // a cached hit
  }
  return lines;
}

TEST(InlineAnswers, ResponsesMatchTheQueuedPathByteForByte) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<std::string> lines = churn_stream(seed);
    std::vector<std::string> inline_run, queued_run;
    std::int64_t inlined = 0;
    {
      Service svc;
      for (const auto& l : lines) inline_run.push_back(svc.request(l));
      const Json s = Json::parse(svc.request(R"({"op":"stats"})"));
      for (const auto& [op, e] : s.at("result").at("endpoints").obj()) {
        inlined += e.at("inline").as_int();
      }
    }
    {
      obs::set_enabled(true);
      Service svc;
      for (const auto& l : lines) queued_run.push_back(svc.request(l));
      EXPECT_EQ(endpoint_count(svc, "rowmin", "inline"), 0);
      obs::set_enabled(false);
      obs::collect();
    }
    ASSERT_EQ(inline_run.size(), queued_run.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(inline_run[i], queued_run[i])
          << "seed " << seed << " line " << i << ": " << lines[i];
    }
    // The untraced run really took the inline path, and not for all of
    // it (long edits and geometric apps queue).
    EXPECT_GT(inlined, 100) << "seed " << seed;
    EXPECT_LT(inlined, static_cast<std::int64_t>(lines.size()));
  }
}

// ---------------------------------------------------------------------------
// Concurrency: inline answers beside queued batches, under churn
// ---------------------------------------------------------------------------

TEST(InlineAnswers, SubmittersAndWorkerShareArraysUnderChurn) {
  ServiceOptions opts;
  opts.profile = two_us_dispatch();  // row searches inline, submatrix queued
  Service svc(opts);
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kN = 256;

  // Expected bytes per (slot, question) from a quiet reference service;
  // queries carry no id, so a response does not name the array id.
  std::vector<std::string> row_q, sub_q;
  for (std::size_t r = 0; r < kN; r += 37) {
    row_q.push_back(R"(,"row":)" + std::to_string(r) + "}");
  }
  for (std::size_t r = 0; r + 60 < kN; r += 45) {
    sub_q.push_back(R"(,"r0":)" + std::to_string(r) + R"(,"r1":)" +
                    std::to_string(r + 60) + R"(,"c0":7,"c1":200})");
  }
  const auto row_line = [&](std::int64_t id, std::size_t q) {
    return R"({"op":"rowmin","array":)" + std::to_string(id) + row_q[q];
  };
  const auto sub_line = [&](std::int64_t id, std::size_t q) {
    return R"({"op":"submatrix_min","array":)" + std::to_string(id) +
           sub_q[q];
  };
  std::vector<std::vector<std::string>> want_row(kSlots), want_sub(kSlots);
  {
    Service reference;
    for (std::size_t s = 0; s < kSlots; ++s) {
      reference.request(reg_random(kN, kN, 100 + s));
      for (std::size_t q = 0; q < row_q.size(); ++q) {
        want_row[s].push_back(
            reference.request(row_line(static_cast<std::int64_t>(s), q)));
      }
      for (std::size_t q = 0; q < sub_q.size(); ++q) {
        want_sub[s].push_back(
            reference.request(sub_line(static_cast<std::int64_t>(s), q)));
      }
    }
  }

  std::atomic<std::int64_t> slot_id[kSlots];
  for (std::size_t s = 0; s < kSlots; ++s) {
    const Json r = Json::parse(svc.request(reg_random(kN, kN, 100 + s)));
    slot_id[s] = r.at("result").at("array").as_int();
  }
  // One inline answer before the threads start, so the count below does
  // not rest on scheduling.
  ASSERT_EQ(svc.request(row_line(slot_id[0], 0)), want_row[0][0]);

  const auto check = [](const std::string& got, const std::string& want) {
    if (got != want && got.find("unknown_array") == std::string::npos) {
      ADD_FAILURE() << "got " << got << "\nwant " << want;
    }
  };
  constexpr int kIters = 300;
  std::atomic<bool> done{false};
  std::int64_t sub_unknown = 0;  // the submatrix thread's own count
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {  // row searches: inline whenever idle
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t s = static_cast<std::size_t>(i + t) % kSlots;
        const std::size_t q =
            static_cast<std::size_t>(i * 7 + t) % row_q.size();
        check(svc.request(row_line(slot_id[s].load(), q)), want_row[s][q]);
      }
    });
  }
  threads.emplace_back([&] {  // submatrix searches: always queued
    for (int i = 0; i < kIters / 3; ++i) {
      std::vector<std::pair<std::size_t, std::size_t>> asked;
      std::vector<std::future<std::string>> futs;
      for (int k = 0; k < 4; ++k) {
        const std::size_t s = static_cast<std::size_t>(i + k) % kSlots;
        const std::size_t q =
            static_cast<std::size_t>(i + 3 * k) % sub_q.size();
        asked.emplace_back(s, q);
        futs.push_back(svc.submit(sub_line(slot_id[s].load(), q)));
      }
      for (std::size_t k = 0; k < futs.size(); ++k) {
        const std::string got = futs[k].get();
        check(got, want_sub[asked[k].first][asked[k].second]);
        if (got.find("unknown_array") != std::string::npos) ++sub_unknown;
      }
    }
  });
  std::thread churn([&] {  // re-register each slot under a fresh id
    for (std::size_t n = 0; !done.load(); ++n) {
      const std::size_t s = n % kSlots;
      const std::int64_t old = slot_id[s].load();
      const Json r = Json::parse(svc.request(reg_random(kN, kN, 100 + s)));
      slot_id[s] = r.at("result").at("array").as_int();
      svc.request(R"({"op":"unregister","array":)" + std::to_string(old) +
                  "}");
      std::this_thread::sleep_for(2ms);
    }
  });
  for (auto& th : threads) th.join();
  done = true;
  churn.join();

  EXPECT_GT(endpoint_count(svc, "rowmin", "inline"), 0);
  // A submatrix search is priced over the hand-off; only one whose array
  // was already gone (no shape, priced at nothing) may run inline.
  EXPECT_LE(endpoint_count(svc, "submatrix_min", "inline"), sub_unknown);
  EXPECT_GT(endpoint_count(svc, "submatrix_min", "ok"), 0);
}

}  // namespace
}  // namespace pmonge::serve
