// The transport backpressure contract (docs/networking.md spells it out
// in full), kept per connection by rpc::Server for every connection it
// serves -- TCP sockets and pmonge-serve's stdin/stdout pair alike:
//
//   A request source may have at most `max_inflight` requests submitted
//   whose responses have not yet been written back.  When a source hits
//   the bound, the transport STOPS READING from it -- the pipe blocks or
//   the socket's receive window fills, pushing the pressure onto the
//   client -- instead of buffering unbounded futures or responses.
//
// Three more valves guard the outbound side:
//
//   * soft_buffer_bytes: a slow reader whose responses pile up past this
//     stops being read (same pressure, different trigger);
//   * overload_inflight: lines already framed when the window is full
//     (one read can deliver many) are answered `overloaded` without
//     touching the service, the exact rejection the admission queue
//     gives -- the client sees backpressure, never silence;
//   * hard_buffer_bytes: the never-unbounded-memory backstop.  A reader
//     so slow (or dead) that even the stopped-read buffer keeps growing
//     past this is dropped.  In-flight responses can still land after
//     reads stop, so soft alone cannot bound memory; hard does.
//
// An attached pair (pmonge-serve's stdin/stdout) differs in two ways.
// It stops framing, not just reading, at a full window: lines one read
// delivered past max_inflight wait in its read buffer and are submitted
// as answers drain, so overload_inflight never refuses a pipe or file
// line.  And it writes with blocking write(2), so its outbound buffer
// empties on every flush: of the four valves, only max_inflight acts.
#pragma once

#include <cstddef>

namespace pmonge::rpc {

struct BackpressureLimits {
  std::size_t max_inflight = 128;          // stop reading at this; >= 1
  std::size_t overload_inflight = 256;     // reject framed lines above this
  std::size_t soft_buffer_bytes = 1u << 20;   // stop reading above this
  std::size_t hard_buffer_bytes = 8u << 20;   // drop the connection above this
};

}  // namespace pmonge::rpc
