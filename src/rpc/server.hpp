// The epoll event loop in front of serve::Service -- pmonge-serve's one
// front end.  It speaks the one-JSON-object-per-line protocol over TCP
// connections it accepts (listen()) and over fd pairs it is handed
// (attach(): stdin/stdout in pmonge-serve's default mode), framing each
// connection's lines and multiplexing them onto the one shared
// admission/batching pipeline.  Response bytes are the service's by
// construction -- the server only frames lines in and writes the
// service's canonical response strings out, in per-connection submission
// order -- so they cannot differ between transports.
//
// One thread runs the event loop (run()); the service's worker resolves
// responses on its own thread and wakes the loop through an eventfd.
// Responses the service gives while the loop is still submitting their
// line (control ops, cached hits, inline answers) skip the eventfd: the
// pump that ends the read drains them.  The lines of one read share one
// serve::InlineBudget, closed in a round where more than one connection
// has input, so a busy loop hands every miss to the worker.
// Everything per-connection (read buffer, pending-response window,
// outbound buffer) is touched only by the loop thread; the completion
// path touches one atomic per response plus the wakeup queue.
//
// Robustness contract (docs/networking.md):
//   * per-connection backpressure per rpc/backpressure.hpp -- stop
//     reading at the inflight/soft valves, `overloaded` rejections for
//     framed excess, connection drop at the hard valve; memory per
//     connection is bounded by construction;
//   * an unterminated last line is answered at the peer's EOF;
//   * --max-conns: surplus connections are answered one `overloaded:
//     connection limit` line and closed;
//   * oversized lines answer `bad_request: line exceeds N bytes` and the
//     connection resynchronizes at the next newline;
//   * idle connections (no traffic, nothing in flight) are closed after
//     idle_timeout_ms;
//   * SIGPIPE-safe on sockets: their writes use MSG_NOSIGNAL; a vanished
//     peer is a closed connection, never a dead process (an attached
//     pair writes with write(2); see attach());
//   * request_stop() (async-signal-safe) starts a graceful drain: stop
//     accepting, stop reading, flush every in-flight response, then
//     close -- bounded by drain_timeout_ms;
//   * fault sites rpc.conn_drop / rpc.read_stall (docs/robustness.md)
//     inject abrupt disconnects and read-side stalls for the chaos
//     harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "rpc/backpressure.hpp"
#include "serve/json.hpp"

namespace pmonge::serve {
class Service;
}

namespace pmonge::rpc {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;               // 0 = ephemeral (see Server::port())
  std::size_t max_conns = 256;
  std::size_t max_line_bytes = 1u << 20;
  std::int64_t idle_timeout_ms = 300000;  // <= 0 disables
  std::int64_t drain_timeout_ms = 5000;   // graceful-drain bound
  BackpressureLimits limits;
};

/// Monotone transport counters (gauges noted), exported through the
/// service's `stats` op as the "rpc" section and as pmonge_rpc_* in the
/// Prometheus exposition.  All relaxed atomics, same contract as
/// support::Counter.
struct ServerStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_conns{0};   // over --max-conns
  std::atomic<std::uint64_t> closed{0};           // orderly closes
  std::atomic<std::uint64_t> dropped_conns{0};    // rpc.conn_drop injections
  std::atomic<std::uint64_t> overflow_drops{0};   // hard-valve drops
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> lines_in{0};
  std::atomic<std::uint64_t> responses_out{0};
  std::atomic<std::uint64_t> oversized_lines{0};
  std::atomic<std::uint64_t> overload_rejected{0};  // framed-excess rejections
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> read_pauses{0};      // backpressure engagements
  // eventfd signals the loop read: one per worker answer whose
  // connection was not already waiting to be pumped.  Answers given
  // while their line is being read -- control ops, cached hits, inline
  // answers -- send none.
  std::atomic<std::uint64_t> wake_signals{0};
  // Connections closed because a write failed: the reader had gone.
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> active_conns{0};     // gauge
  std::atomic<std::uint64_t> conn_high_water{0};  // peak concurrent conns
  std::atomic<std::uint64_t> outbound_high_water{0};  // peak per-conn bytes
};

class Server {
 public:
  Server(serve::Service& service, ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind and listen; throws std::runtime_error naming host:port on
  /// failure.  Must be called before run().
  void listen();

  /// Serve one more connection over an existing fd pair: requests are
  /// read from `in_fd`, responses written to `out_fd` with write(2) --
  /// pmonge-serve's stdin mode is attach(0, 1).  The server owns both
  /// fds and closes them when the connection ends.  Their file status
  /// flags are left alone: a blocking `out_fd` makes a slow reader stall
  /// the loop, which for the only connection is the backpressure.  An
  /// `in_fd` epoll refuses (a regular file, /dev/null) is read whenever
  /// the connection may read.  write(2) raises SIGPIPE on a closed pipe,
  /// so the process should ignore it.  Call before run().
  void attach(int in_fd, int out_fd);

  /// The bound port (after listen()); the way tests and --listen :0
  /// discover an ephemeral port.
  std::uint16_t port() const;

  /// Run the event loop in the calling thread until request_stop(),
  /// then drain gracefully and return; without a listener, return once
  /// the last connection has ended.
  void run();

  /// Begin a graceful drain.  Async-signal-safe (one atomic store and
  /// one write(2)); callable from any thread or a signal handler.
  void request_stop();

  const ServerStats& stats() const;

  /// The "rpc" stats section (wired into Service::set_extra_stats by
  /// pmonge-serve --listen).
  serve::Json stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pmonge::rpc
