// Per-endpoint service metrics: request/outcome counters and latency
// histograms, exported by the `stats` endpoint.
//
// All mutation paths are lock-free atomics (support/histogram.hpp); the
// endpoint map itself is built once at construction over the fixed op
// vocabulary and never restructured, so readers and writers touch it
// without locks.  Unknown ops land in the "_other" slot.
//
// Stats are observability, not results: they are the one part of the
// service whose bytes legitimately vary run to run, which is why query
// responses never embed them (see the bit-identical guarantee in
// docs/serving.md).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.hpp"
#include "support/histogram.hpp"

namespace pmonge::serve {

struct EndpointMetrics {
  support::Counter requests;      // admitted into processing
  support::Counter ok;            // answered with ok:true
  support::Counter errors;        // answered with ok:false (any reason)
  support::Counter overloaded;    // rejected at admission
  support::Counter expired;       // answered deadline_expired
  support::Counter unmeetable;    // rejected deadline_unmeetable at admission
  support::Counter cache_hits;
  support::Counter cache_misses;
  support::Counter retried;       // group retry attempts this op rode
  support::Counter degraded;      // answered via the degraded (breaker) path
  support::Counter inline_answers;  // cache misses answered on the submitting
                                    // thread instead of the queue
  support::Counter inline_slow;     // ... of which took longer than the
                                    // pool hand-off the profile prices
  support::LogHistogram latency_us;  // submit -> response, microseconds
};

class ServiceMetrics {
 public:
  explicit ServiceMetrics(const std::vector<std::string>& ops) {
    for (const auto& op : ops) {
      by_op_.emplace(op, std::make_unique<EndpointMetrics>());
    }
    other_ =
        by_op_.emplace(kOther, std::make_unique<EndpointMetrics>())
            .first->second.get();
  }

  /// string_view overload (and transparent map comparator) so the
  /// fast path's op -- a view into codec scratch -- needs no key copy.
  EndpointMetrics& endpoint(std::string_view op) {
    const auto it = by_op_.find(op);
    return it == by_op_.end() ? *other_ : *it->second;
  }

  support::Counter& batches() { return batches_; }
  support::LogHistogram& batch_size() { return batch_size_; }
  support::Counter& charged_time() { return charged_time_; }
  support::Counter& charged_work() { return charged_work_; }

  // Planner choice counters (one per executed group, by chosen variant).
  support::Counter& plans_brute() { return plans_brute_; }
  support::Counter& plans_sequential() { return plans_sequential_; }
  support::Counter& plans_parallel() { return plans_parallel_; }

  /// Snapshot as a JSON object (endpoints with zero requests and zero
  /// rejections are omitted to keep `stats` responses readable).
  Json snapshot() const {
    Json::Obj endpoints;
    for (const auto& [op, m] : by_op_) {
      if (m->requests.value() == 0 && m->overloaded.value() == 0 &&
          m->unmeetable.value() == 0) {
        continue;
      }
      Json::Obj e;
      e["requests"] = m->requests.value();
      e["ok"] = m->ok.value();
      e["errors"] = m->errors.value();
      e["overloaded"] = m->overloaded.value();
      e["expired"] = m->expired.value();
      e["unmeetable"] = m->unmeetable.value();
      e["cache_hits"] = m->cache_hits.value();
      e["cache_misses"] = m->cache_misses.value();
      e["retried"] = m->retried.value();
      e["degraded"] = m->degraded.value();
      e["inline"] = m->inline_answers.value();
      e["inline_slow"] = m->inline_slow.value();
      Json::Obj lat;
      lat["count"] = m->latency_us.count();
      lat["sum_us"] = m->latency_us.sum();
      lat["p50_us_bound"] = m->latency_us.quantile_bound(0.50);
      lat["p99_us_bound"] = m->latency_us.quantile_bound(0.99);
      // Sparse bucket dump [[bit_width, count], ...] so the Prometheus
      // exposition (obs/prometheus.cpp) can render a real histogram.
      Json::Arr buckets;
      const auto counts = m->latency_us.buckets();
      for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0) continue;
        Json::Arr pair;
        pair.emplace_back(static_cast<std::int64_t>(b));
        pair.emplace_back(counts[b]);
        buckets.emplace_back(std::move(pair));
      }
      lat["buckets"] = Json(std::move(buckets));
      e["latency"] = Json(std::move(lat));
      endpoints[op] = Json(std::move(e));
    }
    Json::Obj out;
    out["endpoints"] = Json(std::move(endpoints));
    Json::Obj batch;
    batch["count"] = batches_.value();
    batch["p50_size_bound"] = batch_size_.quantile_bound(0.50);
    batch["max_size_bound"] = batch_size_.quantile_bound(1.0);
    out["batches"] = Json(std::move(batch));
    Json::Obj charged;
    charged["time"] = charged_time_.value();
    charged["work"] = charged_work_.value();
    out["charged"] = Json(std::move(charged));
    Json::Obj plans;
    plans["brute"] = plans_brute_.value();
    plans["sequential"] = plans_sequential_.value();
    plans["parallel"] = plans_parallel_.value();
    out["plans"] = Json(std::move(plans));
    return Json(std::move(out));
  }

 private:
  static constexpr const char* kOther = "_other";
  std::map<std::string, std::unique_ptr<EndpointMetrics>, std::less<>> by_op_;
  EndpointMetrics* other_ = nullptr;  // the "_other" slot, cached
  support::Counter batches_;
  support::LogHistogram batch_size_;
  support::Counter charged_time_;  // summed simulated-PRAM steps
  support::Counter charged_work_;  // summed simulated-PRAM work
  support::Counter plans_brute_;
  support::Counter plans_sequential_;
  support::Counter plans_parallel_;
};

}  // namespace pmonge::serve
