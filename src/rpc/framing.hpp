// Incremental newline-delimited framing for the NDJSON wire protocol
// over a byte stream (TCP).  A socket read can deliver half a line, one
// line, or twenty coalesced lines; the framer turns that arbitrary
// chunking back into the exact lines the stdin front-end would have seen
// from getline -- the transport must never change which bytes form a
// request (docs/networking.md states the framing contract).
//
// Oversized lines are a protocol violation, not a fatal one: the framer
// reports the line once (Result::Oversized), discards its bytes without
// ever buffering more than max_line_bytes of it, and resynchronizes at
// the next newline -- a client that sends one absurd line gets one error
// response and keeps its connection.  A trailing '\r' is stripped
// (telnet/CRLF tolerance); empty lines are surfaced and skipped by the
// caller, matching the stdin loop.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>

namespace pmonge::rpc {

class LineFramer {
 public:
  enum class Result {
    Line,      // `out` holds one complete line (newline stripped)
    NeedMore,  // no complete line buffered; feed more bytes
    Oversized  // a line exceeded max_line_bytes; it is being discarded
  };

  explicit LineFramer(std::size_t max_line_bytes = std::size_t{1} << 20)
      : max_(max_line_bytes) {}

  std::size_t max_line_bytes() const { return max_; }

  /// Append raw bytes from the stream.  While a previous oversized line
  /// is being discarded, its bytes are dropped here instead of buffered,
  /// so a hostile 1 GB line costs max_line_bytes of memory, not 1 GB.
  void feed(const char* data, std::size_t n) {
    if (discarding_) {
      const char* nl = static_cast<const char*>(std::memchr(data, '\n', n));
      if (nl == nullptr) return;  // still inside the oversized line
      discarding_ = false;
      const std::size_t skip = static_cast<std::size_t>(nl - data) + 1;
      data += skip;
      n -= skip;
    }
    // Lines next() handed out leave the buffer here, all at once: what
    // stays is the tail of the last feed, so each byte moves at most once.
    buf_.erase(0, head_);
    scan_ -= head_;
    head_ = 0;
    buf_.append(data, n);
  }

  /// Extract the next complete line, if any.
  Result next(std::string& out) {
    // Resume the newline search where the last one stopped: a line that
    // arrives in many reads is scanned once, not once per read.
    const std::size_t nl = buf_.find('\n', scan_);
    if (nl == std::string::npos) {
      scan_ = buf_.size();
      if (buffered() > max_) {
        // The line is already too long and its end has not arrived;
        // report it now and drop everything buffered (feed() keeps
        // dropping until the newline shows up).
        buf_.clear();
        head_ = scan_ = 0;
        discarding_ = true;
        return Result::Oversized;
      }
      return Result::NeedMore;
    }
    const std::size_t start = head_;
    head_ = scan_ = nl + 1;
    if (nl - start > max_) return Result::Oversized;
    std::size_t len = nl - start;
    if (len > 0 && buf_[nl - 1] == '\r') --len;  // CRLF tolerance
    out.assign(buf_, start, len);
    return Result::Line;
  }

  /// Bytes buffered awaiting a newline.
  std::size_t buffered() const { return buf_.size() - head_; }

 private:
  std::string buf_;
  std::size_t head_ = 0;  // start of the first line not yet handed out
  std::size_t scan_ = 0;  // no newline in [head_, scan_)
  std::size_t max_;
  bool discarding_ = false;
};

}  // namespace pmonge::rpc
