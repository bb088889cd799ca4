// The long-lived in-process query service: registry + admission queue +
// batcher + sharded result cache + metrics, behind a one-line-in /
// one-line-out NDJSON API (serve/protocol.hpp).  pmonge-serve
// (serve/main.cpp) serves it through rpc::Server, on stdin/stdout or
// TCP; tests and embedders use the class directly.
//
// Plumbing (docs/serving.md has the full picture):
//
//   submit(line) --parse--> control op?  handled synchronously (register
//                            lines decode straight to cells, no DOM:
//                            serve/codec.hpp)
//                       \-> query op priced below one pool hand-off,
//                            queue idle?  answered on the submitting
//                            thread (see "Inline answers" below)
//                       \-> other query op --> AdmissionQueue (bounded;
//                            full => immediate `overloaded` rejection)
//   worker thread:  pop_batch(batch_max) --> expired deadlines answered
//                   `deadline_expired` --> Batcher coalesces the rest into
//                   engine runs --> promises fulfilled
//
// Determinism guarantee: the bytes of every query response depend only on
// the request and the registered operand -- not on PMONGE_THREADS, not on
// batching on/off, not on cache warm/cold, not on what shared the batch,
// not on the planner toggle, the loaded cost profile, or the plan cache.
// `stats` and `explain` are the deliberate exceptions (they report live
// counters / measured timings).
//
// Deadline-aware admission: when the planner is on and a request carries
// a deadline, submit() compares the plan's predicted latency against it
// and answers `deadline_unmeetable` immediately -- the request never
// enters the queue or the engine.
//
// Inline answers (oracular granularity at the front door): a cache miss
// whose predicted time fits the submitter's InlineBudget -- one pool
// hand-off (the profile's par_dispatch_ns) shared by the lines it submits
// together -- runs Batcher::run as a batch of one on the submitting
// thread, under an exec::SerialScope, when the planner and fast path are
// on, tracing and faults are off, the op is not explain and the admission
// queue is idle (empty, not paused).  Metrics, the tagged cache write and
// the response bytes are the queued path's.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/index.hpp"
#include "plan/cost_model.hpp"
#include "plan/planner.hpp"
#include "pram/machine.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace pmonge::serve {

struct ServiceOptions {
  std::size_t queue_capacity = 1024;  // admission bound
  std::size_t batch_max = 64;         // max requests per worker batch
  std::size_t cache_capacity = 4096;  // cached results; 0 disables
  std::size_t cache_shards = 8;
  bool coalesce = true;               // batching layer on/off
  pram::Model model = pram::Model::CRCW_COMMON;
  std::int64_t default_deadline_ms = -1;  // applied when a request has none
  std::size_t max_register_cells = std::size_t{1} << 24;  // register guard
  bool planner = true;                // adaptive execution planner on/off
  plan::CostProfile profile = plan::builtin_profile();  // cost-model constants
  ResilienceOptions resilience;       // retry / timeout / breaker knobs
  // Zero-allocation cached-hit path (serve/codec.hpp): canonicalize the
  // line in place, probe the cache, splice the cached bytes into the
  // response -- no DOM, no queue, no worker hand-off.  It also gates
  // inline answers of cheap misses.  Off is "parse, queue, worker" for
  // every query op; responses are byte-identical either way (the
  // test_codec golden run asserts it), so the toggle exists for A/B
  // benchmarking and bisection, not semantics.
  bool fast_path = true;
};

/// A submitter's allowance of inline work over the lines it submits in
/// one go (the rpc loop: one read).  Together they may run inline what
/// the profile prices below one pool hand-off, since queued they would
/// share one; a closed budget answers nothing inline.
struct InlineBudget {
  bool open = true;
  double spent_ns = 0;  // predicted time of the inline answers so far
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// A response consumer.  Invoked exactly once per submitted line --
  /// on the submitting thread for control ops, rejections, cached hits
  /// and inline answers, on the worker thread for queued query ops.
  /// Must be copyable (the service keeps a copy across the admission
  /// hand-off) and must not throw.
  using ResponseCallback = std::function<void(std::string)>;

  /// Submit one request line, callback form: the transport front-ends'
  /// entry point (the TCP server enqueues the response into the owning
  /// connection from here).  The line is read during the call and not
  /// kept, so it may view a buffer the caller reuses.  `budget`, when
  /// given, is shared with the caller's other lines of the same go;
  /// without one the line gets a budget of its own.  Thread-safe.
  void submit_cb(std::string_view line, ResponseCallback done,
                 InlineBudget* budget = nullptr);

  /// Submit one request line.  Control ops, cached hits and inline
  /// answers resolve before returning; queued query ops resolve when the
  /// worker answers (immediately with `overloaded` if the admission
  /// queue is full).  Thread-safe.
  std::future<std::string> submit(std::string line);

  /// Synchronous single request.
  std::string request(const std::string& line);

  /// Zero-allocation cached-hit attempt: if `line` is a well-formed
  /// query (no deadline/trace fields) whose canonical signature is in
  /// the result cache, appends the full response (no newline) to `out`
  /// and returns true.  False means "not served" -- submit the line
  /// through submit_cb/submit as usual; nothing was consumed or counted.
  /// `out` is untouched on false.  Thread-safe; transport front-ends
  /// call this inline before paying for the queue hand-off.
  bool try_serve_fast(std::string_view line, std::string& out);

  /// Submit all lines, then wait; responses align with `lines`.
  std::vector<std::string> request_batch(const std::vector<std::string>& lines);

  /// Test/bench hook: hold the worker so submissions accumulate and pop
  /// as one coalesced batch on resume().  Deadlines keep ticking.  While
  /// paused no miss is answered inline, so every query op queues.
  void pause();
  void resume();

  const ServiceOptions& options() const { return opts_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  std::size_t queue_depth() const { return queue_->size(); }

  /// Register an extra top-level section for the `stats` op (and the
  /// Prometheus exposition derived from it).  The TCP front-end hooks
  /// its transport counters in as "rpc".  Re-registering a key replaces
  /// it.  Thread-safe; `fn` is called on the stats-reading thread.
  void set_extra_stats(const std::string& key, std::function<Json()> fn);

 private:
  struct Pending {
    Request req;
    ResponseCallback done;
  };

  bool serve_cached(std::string_view line, std::string& out,
                    std::string_view& op_seen);
  /// batcher_.run that answers `internal` instead of throwing.
  std::vector<BatchOutcome> run_batch(
      std::span<const Request> reqs,
      std::span<const ServeClock::time_point> deadlines);
  /// One outcome's response line, counted ok or error under its op.
  std::string respond(const Request& r, BatchOutcome& outcome);
  /// Answer a priced-cheap miss on the calling thread (see submit_cb).
  void answer_inline(const Request& req, ServeClock::time_point t0,
                     ServeClock::time_point deadline, EndpointMetrics& em,
                     const ResponseCallback& done);
  std::string handle_control(const Request& req);
  std::string handle_register(RegisterLine& reg);
  std::string add_array(std::int64_t id, ArrayEntry entry);
  Json stats_json() const;
  void worker_loop();

  ServiceOptions opts_;
  Registry registry_;
  ShardedLruCache cache_;
  ServiceMetrics metrics_;
  plan::Planner planner_;
  index::IndexManager indexes_;  // before batcher_: passed by reference
  Batcher batcher_;
  std::unique_ptr<AdmissionQueue<Pending>> queue_;
  mutable std::mutex extra_stats_mu_;
  std::vector<std::pair<std::string, std::function<Json()>>> extra_stats_;
  std::chrono::steady_clock::time_point start_;  // for stats uptime_ms
  std::thread worker_;
};

}  // namespace pmonge::serve
