#include "rpc/client.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace pmonge::rpc {

namespace {

/// Connect with an optional deadline.  timeout_ms < 0 is a plain
/// blocking ::connect.  Otherwise: flip the socket non-blocking, start
/// the connect, poll for writability up to the deadline, read the
/// outcome from SO_ERROR, and restore blocking mode on success.
/// Returns 0 on success, an errno value (ETIMEDOUT on expiry) otherwise.
int connect_with_timeout(int fd, const sockaddr* addr, socklen_t len,
                         int timeout_ms) {
  if (timeout_ms < 0) {
    return ::connect(fd, addr, len) == 0 ? 0 : errno;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return errno;
  int err = 0;
  if (::connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS) {
      err = errno;
    } else {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      int rc;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        err = ETIMEDOUT;
      } else if (rc < 0) {
        err = errno;
      } else {
        socklen_t elen = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) < 0) {
          err = errno;
        }
      }
    }
  }
  if (err == 0 && ::fcntl(fd, F_SETFL, flags) < 0) err = errno;
  return err;
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      connect_timeout_ms_(other.connect_timeout_ms_),
      framer_(std::move(other.framer_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    connect_timeout_ms_ = other.connect_timeout_ms_;
    framer_ = std::move(other.framer_);
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    throw RpcError("rpc: cannot resolve \"" + host + ":" + port_str +
                   "\": " + ::gai_strerror(rc));
  }
  int fd = -1;
  int err = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      err = errno;
      continue;
    }
    const int cerr = connect_with_timeout(fd, ai->ai_addr, ai->ai_addrlen,
                                          connect_timeout_ms_);
    if (cerr == 0) break;
    err = cerr;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw RpcError("rpc: cannot connect to \"" + host + ":" + port_str +
                   "\": " + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  framer_ = LineFramer(std::size_t{64} << 20);
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::send_line(const std::string& line) {
  if (fd_ < 0) throw RpcError("rpc: not connected");
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t k = ::send(fd_, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      close();
      throw RpcError(std::string("rpc: send failed: ") + std::strerror(err));
    }
    off += static_cast<std::size_t>(k);
  }
}

std::string Client::recv_line() {
  if (fd_ < 0) throw RpcError("rpc: not connected");
  std::string line;
  while (true) {
    const LineFramer::Result r = framer_.next(line);
    if (r == LineFramer::Result::Line) return line;
    if (r == LineFramer::Result::Oversized) {
      throw RpcError("rpc: oversized response line");
    }
    constexpr std::size_t kReadChunk = 65536;
    const ssize_t k = ::recv(fd_, framer_.prepare(kReadChunk), kReadChunk, 0);
    if (k == 0) {
      close();
      throw RpcError("rpc: connection closed by server");
    }
    if (k < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      close();
      throw RpcError(std::string("rpc: recv failed: ") + std::strerror(err));
    }
    framer_.commit(static_cast<std::size_t>(k));
  }
}

std::string Client::request(const std::string& line) {
  send_line(line);
  return recv_line();
}

std::vector<std::string> Client::pipeline(
    const std::vector<std::string>& lines) {
  for (const auto& l : lines) send_line(l);
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) out.push_back(recv_line());
  return out;
}

}  // namespace pmonge::rpc
