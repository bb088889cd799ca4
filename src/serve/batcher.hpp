// Query batcher: turns one admitted batch of heterogeneous requests into
// the fewest engine runs that answer all of them.
//
// Coalescing rules (the tentpole's point -- see docs/serving.md):
//   * row queries against the same registered array and direction become
//     ONE batched row-search invocation (par/monge_rowminima.hpp's
//     *_rows entry points), so B queries cost one recursive decomposition
//     over B rows instead of B independent scans;
//   * staircase row queries group the same way through the row-selected
//     Theorem-2.3 view;
//   * tube point queries group by (d, e) pair and share per-slice row
//     searches (par/tube_maxima.hpp's *_points entry points);
//   * application queries (string_edit, largest_rect, empty_rect,
//     polygon_neighbors) group by op and fan out as parallel branches of
//     one Machine.
// All groups of a batch are then pushed into the exec engine as ONE
// submission (exec::parallel_jobs).
//
// What an op name means is declared once, in the query-op table
// (serve/ops.hpp): op class, operand fields ("array", or "d" and "e"),
// min or max, the array kind the operands need, whether the query index
// can answer it, and its group handler.  The group key is the op name
// plus each operand field's integer id (or "?" when the field is missing
// or not an integer, so a malformed field never shares a group with any
// id).  One generic prologue then runs every group: resolve the
// operands, build the shape, plan, count the plan, pick the index
// route, check the operand kinds, and call the row's handler.  Adding a
// query op takes one table row plus its handler.
//
// Planning: each group consults the execution planner (src/plan) for the
// cheapest variant -- a brute scan of exactly the queried cells, the
// sequential SMAWK-family solver, or the parallel kernel (with the
// plan's grain hint).  All variants return the leftmost optimum, so the
// chosen algorithm is invisible in the response bytes; a disabled
// planner reproduces the old fixed parallel dispatch exactly.
//
// Correctness contract: outcome[i] depends only on request i -- never on
// what else shared its batch, which profile is loaded, or what the plan
// cache holds -- so responses are bit-identical whether coalescing or
// planning is on or off.  Per-request failures (bad fields, unknown
// arrays) are per-request errors; a group-level algorithm failure marks
// only that group's members, never its batch siblings.
//
// The `explain` op ({"op":"explain","query":{...}}) answers with the
// inner query's plan, its predicted cost, the measured wall time of one
// uncached run, and the inner outcome.  Like `stats` it is
// observability output: never cached, bytes may vary run to run.
//
// Resilience (docs/robustness.md): a group whose kernel raises a
// fault::InjectedFault -- the one exception class the stack treats as
// transient -- is retried with exponential backoff, bounded by
// max_retries and by the tightest member deadline (plus the optional
// per-op timeout).  Repeated failures open a circuit breaker that runs
// the next `breaker_cooldown` groups degraded: sequential-SMAWK plans
// under a SerialScope, which never touch the pool (so pool-side
// injections cannot reach them) and produce the same leftmost-optimum
// bytes as every other variant.  Exhausted retries answer a
// `fault_injected` error.  Since all variants are byte-identical,
// neither retries nor degradation can change a response.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "plan/planner.hpp"
#include "pram/machine.hpp"

namespace pmonge::index {
class Index;
class IndexManager;
}
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace pmonge::serve {

struct BatchOutcome {
  bool ok = false;
  Json result;        // valid when ok
  std::string error;  // valid when !ok
  bool cache_hit = false;
};

/// Retry / timeout / circuit-breaker knobs (ServiceOptions embeds one).
struct ResilienceOptions {
  std::size_t max_retries = 3;       // retry attempts per group
  std::int64_t op_timeout_ms = -1;   // per-group execution budget; -1 none
  std::size_t breaker_threshold = 5; // consecutive failures that open it
  std::size_t breaker_cooldown = 32; // groups run degraded while open
};

/// Live resilience counters (stats `resilience` section).
struct ResilienceSnapshot {
  std::uint64_t retries = 0;         // group-level retry attempts
  std::uint64_t batch_retries = 0;   // batch-dispatch resubmissions
  std::uint64_t degraded_groups = 0; // groups answered degraded
  std::uint64_t breaker_opens = 0;
  std::uint64_t fault_errors = 0;    // groups answered fault_injected
  bool breaker_open = false;
};

namespace detail {
/// A request slot inside one coalesced group.
struct BatchMember {
  const Request* req;
  BatchOutcome* out;
  ServeClock::time_point deadline = kNoDeadline;
};
}  // namespace detail

/// What `req` would touch, in cost-model units (batch = 1): operand
/// dimensions resolved through the registry where the op references a
/// registered array.  Unknown arrays / malformed fields yield a zero
/// shape (predicts ~nothing; the query itself then fails normally).
/// Shared by admission control and the explain op.
plan::QueryShape query_shape(const Request& req, Registry& reg);

class Batcher {
 public:
  Batcher(Registry& registry, ShardedLruCache& cache, ServiceMetrics& metrics,
          const plan::Planner& planner, index::IndexManager& indexes,
          pram::Model model, bool coalesce, ResilienceOptions resilience = {})
      : registry_(registry),
        cache_(cache),
        metrics_(metrics),
        planner_(planner),
        indexes_(indexes),
        model_(model),
        coalesce_(coalesce),
        res_(resilience) {}

  /// Answer every query request in `reqs` (all must be query-plane ops).
  /// Outcomes align with `reqs`; every request gets exactly one outcome.
  /// `deadlines` (absolute, kNoDeadline sentinel), when non-empty, aligns
  /// with `reqs` and bounds that request's retry budget.
  std::vector<BatchOutcome> run(
      std::span<const Request> reqs,
      std::span<const ServeClock::time_point> deadlines = {});

  ResilienceSnapshot resilience() const;

 private:
  void dispatch_group(std::vector<detail::BatchMember>& ms);
  void dispatch_group_once(std::vector<detail::BatchMember>& ms,
                           bool degraded);
  plan::Plan plan_for(const plan::QueryShape& shape, bool degraded) const;
  /// The query index to answer an "array" query through, or nullptr when
  /// none is built or the planner prefers the direct solver.
  std::shared_ptr<index::Index> index_route(
      const Json& body, const plan::QueryShape& shape) const;
  void run_explain(const Request& req, BatchOutcome& out);
  bool breaker_open() const;
  void note_failure();
  void note_group_done(bool degraded);

  Registry& registry_;
  ShardedLruCache& cache_;
  ServiceMetrics& metrics_;
  const plan::Planner& planner_;
  index::IndexManager& indexes_;
  pram::Model model_;
  bool coalesce_;
  ResilienceOptions res_;

  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> batch_retries_{0};
  std::atomic<std::uint64_t> degraded_groups_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> fault_errors_{0};
  std::atomic<std::uint64_t> consecutive_failures_{0};
  // > 0: open, counts the degraded groups remaining before it re-closes.
  std::atomic<std::int64_t> breaker_budget_{0};
};

}  // namespace pmonge::serve
