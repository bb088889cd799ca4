#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "index/index.hpp"
#include "obs/trace.hpp"
#include "serve/ops.hpp"

namespace pmonge::serve {

using Member = detail::BatchMember;

namespace {

void count_plan(ServiceMetrics& metrics, plan::Algo algo) {
  switch (algo) {
    case plan::Algo::Brute: metrics.plans_brute().add(); break;
    case plan::Algo::Sequential: metrics.plans_sequential().add(); break;
    case plan::Algo::Parallel: metrics.plans_parallel().add(); break;
  }
}

/// The registered array an operand field names; nullptr (with `why` set
/// to the per-request error) when the field is malformed or unknown.
std::shared_ptr<const ArrayEntry> resolve(Registry& reg, const Json& body,
                                          const std::string& field,
                                          std::string& why) {
  const std::optional<std::int64_t> id = operand_id(body, field);
  if (!id) {
    why = "bad_request: missing or non-integer field \"" + field + "\"";
    return nullptr;
  }
  std::shared_ptr<const ArrayEntry> entry =
      *id < 0 ? nullptr : reg.get(static_cast<std::uint64_t>(*id));
  if (entry == nullptr) why = "unknown_array: " + std::to_string(*id);
  return entry;
}

/// Widen `s` to cover one operand-free request: string lengths for an
/// edit distance, point / vertex counts for a geometric app.
void grow_extent(plan::QueryShape& s, const Json& b) {
  const auto size_of = [&](const char* key, Json::Type t) -> std::size_t {
    const Json* p = b.find(key);
    if (p == nullptr || p->type() != t) return 0;
    return t == Json::Type::String ? p->as_string().size() : p->arr().size();
  };
  if (s.op == plan::OpClass::EditDistance) {
    s.rows = std::max(s.rows, size_of("x", Json::Type::String));
    s.cols = std::max(s.cols, size_of("y", Json::Type::String));
  } else {
    s.rows = std::max(s.rows, size_of("points", Json::Type::Array) +
                                  size_of("p", Json::Type::Array) +
                                  size_of("q", Json::Type::Array));
  }
}

/// Ids of the registered arrays `req` reads -- the cache-entry tags that
/// unregister invalidates.
std::vector<std::uint64_t> result_tags(const Request& req) {
  std::vector<std::uint64_t> tags;
  const QueryOp* op = find_query_op(req.op);
  if (op == nullptr) return tags;
  for (const std::string& field : operand_fields(op->operands)) {
    const std::optional<std::int64_t> id = operand_id(req.body, field);
    if (id && *id >= 0) tags.push_back(static_cast<std::uint64_t>(*id));
  }
  return tags;
}

}  // namespace

plan::QueryShape query_shape(const Request& req, Registry& reg) {
  plan::QueryShape s;
  const QueryOp* op = find_query_op(req.op);
  if (op == nullptr) return s;
  s.op = op->op_class;
  const auto fields = operand_fields(op->operands);
  if (fields.empty()) {
    grow_extent(s, req.body);
    return s;
  }
  const std::optional<std::int64_t> id = operand_id(req.body, fields[0]);
  if (const auto e = id && *id >= 0 ? reg.get(static_cast<std::uint64_t>(*id))
                                    : nullptr) {
    s.rows = e->data.rows();
    s.cols = e->data.cols();
  }
  return s;
}

std::shared_ptr<index::Index> Batcher::index_route(
    const Json& body, const plan::QueryShape& shape) const {
  const std::optional<std::int64_t> id = operand_id(body, "array");
  std::shared_ptr<index::Index> idx =
      id && *id >= 0 ? indexes_.get(static_cast<std::uint64_t>(*id)) : nullptr;
  return idx != nullptr && planner_.prefer_index(shape) ? idx : nullptr;
}

plan::Plan Batcher::plan_for(const plan::QueryShape& shape,
                             bool degraded) const {
  plan::Plan pl = planner_.plan(shape);
  if (degraded) {
    // The degradation contract: sequential-SMAWK under a SerialScope
    // never touches the pool, and returns the same leftmost-optimum
    // bytes as every other variant.
    pl.algo = plan::Algo::Sequential;
    pl.grain = 0;
    return pl;
  }
  if (fault::armed() && fault::should_fire(fault::Site::PlanCorruptPlan)) {
    // Rotate to a different variant.  Byte-identity across variants is
    // exactly the invariant the chaos harness checks, so a "corrupted"
    // plan may cost time but can never change a response.
    switch (pl.algo) {
      case plan::Algo::Brute: pl.algo = plan::Algo::Sequential; break;
      case plan::Algo::Sequential: pl.algo = plan::Algo::Parallel; break;
      case plan::Algo::Parallel: pl.algo = plan::Algo::Brute; break;
    }
    pl.grain = 0;
  }
  return pl;
}

bool Batcher::breaker_open() const {
  return breaker_budget_.load(std::memory_order_relaxed) > 0;
}

void Batcher::note_failure() {
  const std::uint64_t n =
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= std::max<std::size_t>(1, res_.breaker_threshold) &&
      res_.breaker_cooldown > 0 && !breaker_open()) {
    breaker_budget_.store(static_cast<std::int64_t>(res_.breaker_cooldown),
                          std::memory_order_relaxed);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    consecutive_failures_.store(0, std::memory_order_relaxed);
  }
}

void Batcher::note_group_done(bool degraded) {
  if (!degraded) return;
  degraded_groups_.fetch_add(1, std::memory_order_relaxed);
  breaker_budget_.fetch_sub(1, std::memory_order_relaxed);
}

void Batcher::dispatch_group(std::vector<Member>& ms) {
  // Retry budget: the tightest member deadline, further tightened by the
  // optional per-op timeout.  Attempts never sleep past it.
  ServeClock::time_point deadline = kNoDeadline;
  for (const Member& m : ms) deadline = std::min(deadline, m.deadline);
  if (res_.op_timeout_ms >= 0) {
    deadline = std::min(
        deadline,
        ServeClock::now() + std::chrono::milliseconds(res_.op_timeout_ms));
  }
  for (std::size_t attempt = 1;; ++attempt) {
    const bool degraded = breaker_open();
    try {
      // The group-fault site models the *parallel* plan failing; the
      // degraded path is the sequential fallback, so it is exempt --
      // which is also what makes breaker recovery deterministic under a
      // 100% injection rate (tests/test_chaos.cpp).
      if (!degraded && fault::armed() &&
          fault::should_fire(fault::Site::ServeGroupFault)) {
        throw fault::InjectedFault(fault::Site::ServeGroupFault);
      }
      dispatch_group_once(ms, degraded);
      note_group_done(degraded);
      if (degraded) {
        for (const Member& m : ms) {
          metrics_.endpoint(m.req->op).degraded.add();
        }
      }
      if (attempt == 1) {
        // A clean first-attempt success closes the failure streak.
        consecutive_failures_.store(0, std::memory_order_relaxed);
      }
      return;
    } catch (const fault::InjectedFault& f) {
      note_failure();
      auto backoff = std::chrono::microseconds(
          200ull << std::min<std::size_t>(attempt - 1, 10));
      if (backoff > std::chrono::microseconds(5000)) {
        backoff = std::chrono::microseconds(5000);
      }
      const auto now = ServeClock::now();
      if (attempt > res_.max_retries ||
          (deadline != kNoDeadline && now + backoff >= deadline)) {
        // Out of budget: one coherent group-level error (partial
        // outcomes from the failed attempt are discarded first).
        for (Member& m : ms) *m.out = BatchOutcome{};
        fail_unanswered(ms, std::string("fault_injected: ") +
                                fault::site_name(f.site) + " after " +
                                std::to_string(attempt) + " attempt(s)");
        fault_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      for (const Member& m : ms) {
        metrics_.endpoint(m.req->op).retried.add();
      }
      {
        obs::TraceContext tctx(ms.front().req->trace_id);
        obs::Span rspan("serve.retry");
        rspan.set_detail(fault::site_name(f.site));
        rspan.set_arg("attempt", attempt);
        std::this_thread::sleep_for(backoff);
      }
      // Kernels are deterministic: recomputation reproduces the exact
      // bytes, so resetting partial outcomes cannot change a response.
      for (Member& m : ms) *m.out = BatchOutcome{};
    }
  }
}

void Batcher::dispatch_group_once(std::vector<Member>& ms, bool degraded) {
  const std::string& op = ms.front().req->op;
  // Group-level spans (and the plan/kernel spans they enclose) carry a
  // representative trace id: the first member's.  Per-request intervals
  // are separately visible as serve.request spans.
  obs::TraceContext tctx(ms.front().req->trace_id);
  obs::Span span("serve.group");
  span.set_detail(op);
  span.set_arg("members", ms.size());
  // Degraded execution stays off the pool entirely (see thread_pool.cpp:
  // serial scopes never enter the pooled chunk loop, where the exec
  // fault sites live), so a breaker-opened batcher genuinely dodges the
  // injections that opened it.
  std::optional<exec::SerialScope> serial;
  if (degraded) serial.emplace();
  try {
    const QueryOp* spec = find_query_op(op);
    if (spec == nullptr) {
      fail_unanswered(ms, "unknown_op: " + op);
      return;
    }
    // Members share the group key, hence every operand field: the front
    // member's fields resolve for the whole group.
    const Json& body = ms.front().req->body;
    Group g{ms, *spec, {}, nullptr, {}, model_, metrics_};
    for (const std::string& field : operand_fields(spec->operands)) {
      std::string why;
      g.arrays.push_back(resolve(registry_, body, field, why));
      if (g.arrays.back() == nullptr) {
        fail_unanswered(ms, why);
        return;
      }
    }
    plan::QueryShape shape{spec->op_class, 0, 0, ms.size()};
    if (g.arrays.empty()) {
      for (const Member& m : ms) grow_extent(shape, m.req->body);
    } else {
      shape.rows = g.arrays[0]->data.rows();
      shape.cols = g.arrays[0]->data.cols();
    }
    g.plan = plan_for(shape, degraded);
    count_plan(metrics_, g.plan.algo);
    // Route through the index only when one exists and the planner
    // predicts the O(lg m) lookups beat the best direct plan.  The
    // degraded path (breaker open) stays on the direct sequential
    // solver -- same bytes either way, so the route is free to vary.
    if (spec->indexable && !degraded) g.idx = index_route(body, shape);
    for (const auto& entry : g.arrays) {
      if (const char* why = kind_mismatch(spec->requires_kind, entry->kind)) {
        fail_unanswered(ms, why);
        return;
      }
    }
    spec->run(g);
  } catch (const fault::InjectedFault&) {
    throw;  // transient by contract: dispatch_group's retry loop owns it
  } catch (const std::exception& e) {
    fail_unanswered(ms, std::string("internal: ") + e.what());
  }
}

void Batcher::run_explain(const Request& req, BatchOutcome& out) {
  const Json* q = req.body.find("query");
  if (q == nullptr || q->type() != Json::Type::Object) {
    set_error(out, "bad_request: explain requires an object field \"query\"");
    return;
  }
  Request inner;
  try {
    inner = parse_request(q->dump());
  } catch (const JsonError& e) {
    set_error(out, e.what());
    return;
  }
  const QueryOp* spec = find_query_op(inner.op);
  if (spec == nullptr) {
    set_error(out,
              "bad_request: explain \"query\" must be a query op other than "
              "explain");
    return;
  }

  const plan::QueryShape shape = query_shape(inner, registry_);
  const plan::Plan pl = planner_.plan(shape);

  // One uncached run of the inner query, timed.  explain is
  // observability: neither this run nor its timing touches the result
  // cache, and the inner bytes it reports are the same bytes the plain
  // query produces.
  BatchOutcome sub;
  std::vector<Member> ms{Member{&inner, &sub}};
  const auto t0 = std::chrono::steady_clock::now();
  dispatch_group(ms);
  const auto t1 = std::chrono::steady_clock::now();
  const double actual_us =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0)
                              .count()) /
      1000.0;

  Json::Obj shape_o;
  shape_o["op_class"] = plan::op_class_name(shape.op);
  shape_o["rows"] = static_cast<std::int64_t>(shape.rows);
  shape_o["cols"] = static_cast<std::int64_t>(shape.cols);
  shape_o["batch"] = static_cast<std::int64_t>(shape.batch);
  Json::Obj plan_o;
  plan_o["algo"] = plan::algo_name(pl.algo);
  plan_o["grain"] = static_cast<std::int64_t>(pl.grain);
  plan_o["predicted_us"] = pl.predicted_us;
  plan_o["profile"] = planner_.profile().id;
  plan_o["planner_enabled"] = planner_.enabled();
  if (spec->indexable) {
    // Whether the non-degraded dispatch would route through the query
    // index: one must exist for the operand AND the planner must predict
    // the lookup beats the best direct plan (docs/indexing.md).
    plan_o["use_index"] = index_route(inner.body, shape) != nullptr;
  }
  plan_o["shape"] = Json(std::move(shape_o));
  Json::Obj outcome_o;
  outcome_o["ok"] = sub.ok;
  if (sub.ok) {
    outcome_o["result"] = sub.result;
  } else {
    outcome_o["error"] = sub.error;
  }
  Json::Obj o;
  o["plan"] = Json(std::move(plan_o));
  o["actual_us"] = actual_us;
  o["outcome"] = Json(std::move(outcome_o));
  set_ok(out, Json(std::move(o)));
}

ResilienceSnapshot Batcher::resilience() const {
  ResilienceSnapshot s;
  s.retries = retries_.load(std::memory_order_relaxed);
  s.batch_retries = batch_retries_.load(std::memory_order_relaxed);
  s.degraded_groups = degraded_groups_.load(std::memory_order_relaxed);
  s.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  s.fault_errors = fault_errors_.load(std::memory_order_relaxed);
  s.breaker_open = breaker_budget_.load(std::memory_order_relaxed) > 0;
  return s;
}

std::vector<BatchOutcome> Batcher::run(
    std::span<const Request> reqs,
    std::span<const ServeClock::time_point> deadlines) {
  std::vector<BatchOutcome> out(reqs.size());

  // Cache pass: answered hits never reach a group.  explain requests
  // bypass the cache entirely (their payload embeds a measured time).
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].op == "explain") {
      run_explain(reqs[i], out[i]);
      continue;
    }
    if (cache_.enabled()) {
      if (auto hit = cache_.get(reqs[i].signature)) {
        out[i].ok = true;
        out[i].cache_hit = true;
        out[i].result = Json::parse(*hit);
        metrics_.endpoint(reqs[i].op).cache_hits.add();
        continue;
      }
      metrics_.endpoint(reqs[i].op).cache_misses.add();
    }
    misses.push_back(i);
  }

  // Group the misses.  The key fixes everything a handler dispatches on;
  // with coalescing off every request is its own group (same code path,
  // so responses cannot depend on the toggle).
  std::map<std::string, std::vector<Member>> groups;
  for (const std::size_t i : misses) {
    const Request& r = reqs[i];
    std::string key = r.op;
    if (const QueryOp* spec = find_query_op(r.op)) {
      // A missing or non-integer operand keys as "?", apart from every
      // integer id, so its members answer their own bad_request.
      for (const std::string& field : operand_fields(spec->operands)) {
        const std::optional<std::int64_t> id = operand_id(r.body, field);
        key += ':';
        key += id ? std::to_string(*id) : "?";
      }
    }
    if (!coalesce_) key += "#" + std::to_string(i);
    groups[key].push_back(
        Member{&reqs[i], &out[i],
               deadlines.empty() ? kNoDeadline : deadlines[i]});
  }

  // One engine submission for the whole batch; dispatch_group never
  // throws.  The submission itself is pooled, though, so an exec fault
  // site can fire on a jobs chunk *before* its group ran -- in which
  // case that group is completely untouched (a group is all-answered or
  // untouched, never partial).  Resubmit the untouched groups, bounded
  // by max_retries.
  std::vector<std::vector<Member>*> pending;
  pending.reserve(groups.size());
  for (auto& [key, members_ref] : groups) pending.push_back(&members_ref);
  for (std::size_t attempt = 0; !pending.empty(); ++attempt) {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(pending.size());
    for (std::vector<Member>* members : pending) {
      jobs.push_back([this, members] { dispatch_group(*members); });
    }
    try {
      exec::parallel_jobs(jobs);
      break;
    } catch (const fault::InjectedFault& f) {
      std::vector<std::vector<Member>*> untouched;
      for (std::vector<Member>* members : pending) {
        const bool unanswered =
            std::any_of(members->begin(), members->end(), [](const Member& m) {
              return !m.out->ok && m.out->error.empty();
            });
        if (unanswered) untouched.push_back(members);
      }
      pending = std::move(untouched);
      if (pending.empty()) break;
      if (attempt >= res_.max_retries) {
        for (std::vector<Member>* members : pending) {
          fail_unanswered(*members, std::string("fault_injected: ") +
                                        fault::site_name(f.site) +
                                        " at batch dispatch");
          fault_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      batch_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Memoize fresh successes under their signatures, tagged with the
  // array ids they read so unregister can invalidate them.
  if (cache_.enabled()) {
    for (const std::size_t i : misses) {
      if (out[i].ok) {
        cache_.put_tagged(reqs[i].signature, out[i].result.dump(),
                          result_tags(reqs[i]));
      }
    }
  }
  return out;
}

}  // namespace pmonge::serve
