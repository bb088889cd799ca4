// Small blocking client for the NDJSON-over-TCP protocol
// (docs/networking.md): connect, send request lines, receive response
// lines.  Supports pipelining -- send_line() does not wait, recv_line()
// returns responses in the order the requests were sent (the server
// writes per-connection responses in submission order) -- which is what
// the open-loop load test and the examples build on.
//
// Errors are exceptions (RpcError): a refused connect, a peer that
// closed mid-stream, a write into a vanished server.  All writes use
// MSG_NOSIGNAL, so a dead peer raises RpcError instead of SIGPIPE.
// The class is NOT thread-safe for concurrent use of the same instance,
// with one deliberate exception: one thread may send while another
// receives (an open-loop sender/receiver split), because the send and
// receive paths touch disjoint state.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rpc/framing.hpp"

namespace pmonge::rpc {

struct RpcError : std::runtime_error {
  explicit RpcError(const std::string& what) : std::runtime_error(what) {}
};

class Client {
 public:
  Client() = default;
  Client(const std::string& host, std::uint16_t port) { connect(host, port); }
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect (blocking); throws RpcError naming host:port on failure.
  /// Honors the connect timeout set below, per address attempted.
  void connect(const std::string& host, std::uint16_t port);

  /// Cap each connect() attempt at `ms` milliseconds (non-blocking
  /// connect + poll; the socket is restored to blocking mode once the
  /// handshake completes).  -1, the default, blocks without limit.
  /// Must be set before connect() to take effect.
  void set_connect_timeout_ms(int ms) { connect_timeout_ms_ = ms; }
  int connect_timeout_ms() const { return connect_timeout_ms_; }

  bool connected() const { return fd_ >= 0; }
  void close();

  /// Half-close the write side: the server sees EOF, drains every
  /// in-flight response to us, then closes.  recv_line() keeps working
  /// until the stream ends.
  void shutdown_write();

  /// Send one request line (a '\n' is appended).  Does not wait for the
  /// response; pair with recv_line().
  void send_line(const std::string& line);

  /// Receive the next response line (blocking).  Throws RpcError when
  /// the server closes the stream first.
  std::string recv_line();

  /// send_line + recv_line.
  std::string request(const std::string& line);

  /// Pipelined round trip: send every line, then collect the responses
  /// in order.
  std::vector<std::string> pipeline(const std::vector<std::string>& lines);

  /// The raw socket (tests use it to exercise split/coalesced writes).
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  int connect_timeout_ms_ = -1;
  LineFramer framer_{std::size_t{64} << 20};  // responses can be large (trace)
};

}  // namespace pmonge::rpc
