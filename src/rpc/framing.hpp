// Incremental newline-delimited framing for the NDJSON wire protocol
// over a byte stream (a socket, a pipe, a file).  A read can deliver half
// a line, one line, or twenty coalesced lines; the framer turns that
// arbitrary chunking back into the exact lines getline would have seen,
// an unterminated last line included (finish()) -- the transport must
// never change which bytes form a request (docs/networking.md states the
// framing contract).
//
// Oversized lines are a protocol violation, not a fatal one: the framer
// reports the line once (Result::Oversized), discards its bytes without
// ever buffering more than max_line_bytes of it, and resynchronizes at
// the next newline -- a client that sends one absurd line gets one error
// response and keeps its connection.  A trailing '\r' is stripped
// (telnet/CRLF tolerance); empty lines are surfaced and skipped by the
// caller.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

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

  /// Room for `n` more bytes at the end of the buffer: read from the
  /// stream straight into it, then commit() what arrived.  Invalidates
  /// the lines next() handed out, which leave the buffer here, all at
  /// once: what stays is the tail of the last read, so each byte moves
  /// at most once.
  char* prepare(std::size_t n) {
    if (head_ > 0) {
      std::memmove(buf_.get(), buf_.get() + head_, size_ - head_);
      size_ -= head_;
      scan_ -= head_;
      head_ = 0;
    }
    if (cap_ - size_ < n) {
      const std::size_t cap = std::max(size_ + n, 2 * cap_);
      auto grown = std::make_unique_for_overwrite<char[]>(cap);
      if (size_ > 0) std::memcpy(grown.get(), buf_.get(), size_);
      buf_ = std::move(grown);
      cap_ = cap;
    }
    return buf_.get() + size_;
  }

  /// Take the first `n` bytes written at prepare()'s pointer.  While a
  /// previous oversized line is being discarded, its bytes are dropped
  /// here instead of kept, so a hostile 1 GB line costs max_line_bytes
  /// plus one read of memory, not 1 GB.
  void commit(std::size_t n) {
    if (discarding_) {
      const char* data = buf_.get() + size_;
      const void* nl = std::memchr(data, '\n', n);
      if (nl == nullptr) return;  // still inside the oversized line
      discarding_ = false;
      head_ = scan_ = size_ + static_cast<std::size_t>(
                                  static_cast<const char*>(nl) - data) + 1;
    }
    size_ += n;
  }

  /// Append raw bytes from the stream (a copy; prepare/commit avoid it).
  void feed(const char* data, std::size_t n) {
    if (n == 0) return;
    std::memcpy(prepare(n), data, n);
    commit(n);
  }

  /// Extract the next complete line, if any.  `out` views the buffer and
  /// stays valid until the next prepare() or feed().
  Result next(std::string_view& out) {
    // Resume the newline search where the last one stopped: a line that
    // arrives in many reads is scanned once, not once per read.
    const char* const b = buf_.get();
    const void* found =
        scan_ < size_ ? std::memchr(b + scan_, '\n', size_ - scan_) : nullptr;
    if (found == nullptr) {
      scan_ = size_;
      if (buffered() > max_) {
        // The line is already too long and its end has not arrived;
        // report it now and drop everything buffered (commit() keeps
        // dropping until the newline shows up).
        head_ = scan_ = size_ = 0;
        discarding_ = true;
        return Result::Oversized;
      }
      return Result::NeedMore;
    }
    const auto nl = static_cast<std::size_t>(static_cast<const char*>(found) - b);
    const std::size_t start = head_;
    head_ = scan_ = nl + 1;
    if (nl - start > max_) return Result::Oversized;
    std::size_t len = nl - start;
    if (len > 0 && b[nl - 1] == '\r') --len;  // CRLF tolerance
    out = std::string_view(b + start, len);
    return Result::Line;
  }

  /// next(), copying the line out (for callers that keep it).
  Result next(std::string& out) {
    std::string_view line;
    const Result r = next(line);
    if (r == Result::Line) out.assign(line);
    return r;
  }

  /// At end of stream, after next() has run dry: the unterminated last
  /// line, if any of it is buffered (a trailing '\r' stripped, as next()
  /// does).  `out` views the buffer like next()'s lines.
  bool finish(std::string_view& out) {
    if (buffered() == 0) return false;
    std::size_t len = size_ - head_;
    if (buf_[size_ - 1] == '\r') --len;
    out = std::string_view(buf_.get() + head_, len);
    head_ = scan_ = size_;
    return true;
  }

  /// Bytes buffered awaiting a newline.
  std::size_t buffered() const { return size_ - head_; }

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;  // bytes received into buf_
  std::size_t head_ = 0;  // start of the first line not yet handed out
  std::size_t scan_ = 0;  // no newline in [head_, scan_)
  std::size_t max_;
  bool discarding_ = false;
};

}  // namespace pmonge::rpc
