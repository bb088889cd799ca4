#include "driver.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

namespace {

// A session that has not finished this long after the last one started
// is abandoned and its requests count as transport failures.
constexpr std::int64_t kDrainLimitNs = 150'000'000'000;
constexpr std::size_t kRecvChunk = std::size_t{1} << 16;
constexpr int kServerNice = 5;

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// When the kernel received the bytes of `msg` (its SO_TIMESTAMPNS
// stamp, on the realtime clock), on now_ns()'s clock, given that the
// driver read them at `recv_ns`.  The driver's own wake-up delay after
// a response arrives then does not count as server latency.
std::int64_t kernel_arrival_ns(msghdr& msg, std::int64_t recv_ns) {
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level != SOL_SOCKET || cm->cmsg_type != SCM_TIMESTAMPNS) continue;
    timespec stamp{}, now{};
    std::memcpy(&stamp, CMSG_DATA(cm), sizeof stamp);
    ::clock_gettime(CLOCK_REALTIME, &now);
    const std::int64_t ago = (now.tv_sec - stamp.tv_sec) * 1'000'000'000LL +
                             (now.tv_nsec - stamp.tv_nsec);
    if (ago >= 0) return recv_ns - ago;
  }
  return recv_ns;
}

}  // namespace

struct Driver::Conn {
  int fd = -1;
  std::string in;  // received bytes not yet framed into lines
  std::string out;
  std::size_t out_off = 0;
  std::deque<std::uint32_t> inflight;  // record indices, FIFO
  std::size_t active = 0;              // sessions in flight
  bool exhausted = false;              // traffic has no session left here
  bool dead = false;
};

class Driver::ConnSender : public Sender {
 public:
  ConnSender(Phase& ph, Conn& c, std::uint32_t session, std::int64_t due)
      : ph_(ph), c_(c), session_(session), due_(due) {}

  void send(std::uint32_t tag, std::string_view line) override {
    Record r;
    r.tag = tag;
    r.session = session_;
    r.due_ns = due_;
    c_.inflight.push_back(static_cast<std::uint32_t>(ph_.recs.size()));
    ph_.recs.push_back(r);
    c_.out.append(line);
    c_.out.push_back('\n');
  }

 private:
  Phase& ph_;
  Conn& c_;
  std::uint32_t session_;
  std::int64_t due_;
};

Driver::Driver(std::vector<int> fds) {
  // Timer slack of 1 ns: ppoll wakes when the next request is due, not
  // up to 50 us later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (const int fd : fds) {
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    conns_.push_back(std::move(c));
  }
}

Driver::~Driver() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
}

void Driver::flush(Conn& c) {
  while (!c.dead && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      c.dead = true;
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

bool Driver::pump(Phase& ph, Traffic& t, std::int64_t timeout_ns) {
  std::vector<pollfd> pfds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = *conns_[i];
    pfds[i].fd = c.dead ? -1 : c.fd;
    pfds[i].events = POLLIN;
    if (c.out_off < c.out.size()) pfds[i].events |= POLLOUT;
    pfds[i].revents = 0;
  }
  timespec ts{};
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (rc < 0) {
    if (errno == EINTR) return false;
    sys_fail("ppoll");
  }
  if (rc == 0) return false;

  static thread_local std::vector<char> buf(kRecvChunk);
  const bool keep = t.keep_responses();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = *conns_[i];
    if (c.dead) continue;
    if (pfds[i].revents & POLLOUT) flush(c);
    if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    while (true) {
      iovec iov{buf.data(), buf.size()};
      alignas(cmsghdr) char ctl[CMSG_SPACE(sizeof(timespec))];
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = ctl;
      msg.msg_controllen = sizeof ctl;
      const ssize_t n = ::recvmsg(c.fd, &msg, MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        c.dead = true;
        break;
      }
      const std::int64_t recv_ns = now_ns();
      const std::int64_t arrived_ns = kernel_arrival_ns(msg, recv_ns);
      const std::size_t had = c.in.size();
      c.in.append(buf.data(), static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = c.in.find('\n', had); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        const std::string_view line(c.in.data() + start, nl - start);
        start = nl + 1;
        if (c.inflight.empty()) {
          c.dead = true;  // a response nobody asked for
          break;
        }
        const std::uint32_t idx = c.inflight.front();
        c.inflight.pop_front();
        Record& r = ph.recs[idx];
        r.recv_ns = recv_ns;
        r.arrived_ns = arrived_ns;
        if (keep) {
          r.resp_off = ph.arena.size();
          r.resp_len = static_cast<std::uint32_t>(line.size());
          ph.arena += line;
        }
        ph.end_ns = recv_ns;
        const std::uint32_t session = r.session;
        ConnSender follow(ph, c, session, recv_ns);
        if (t.on_response(session, r.tag, line, follow)) --c.active;
      }
      c.in.erase(0, start);
      if (static_cast<std::size_t>(n) < buf.size()) break;
    }
    flush(c);
  }
  return true;
}

Phase Driver::run(Traffic& t, std::size_t window, double seconds,
                  const std::vector<std::int64_t>* schedule) {
  Phase ph;
  ph.start_ns = now_ns();
  ph.end_ns = ph.start_ns;
  const std::int64_t stop_ns =
      seconds > 0 ? ph.start_ns + static_cast<std::int64_t>(seconds * 1e9)
                  : INT64_MAX;
  std::uint32_t next_session = 0;
  std::size_t k = 0;  // next schedule slot
  bool exhausted = false;
  std::int64_t last_start = ph.start_ns;
  for (auto& c : conns_) c->exhausted = false;
  std::int64_t next_tick = ph.start_ns;

  while (true) {
    std::int64_t now = now_ns();
    if (tick_ && now >= next_tick) {
      tick_();
      next_tick = now + tick_every_ns_;
    }
    if (schedule == nullptr) {
      exhausted = true;
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = *conns_[ci];
        while (!c.dead && !c.exhausted && c.active < window && now < stop_ns) {
          ConnSender s(ph, c, next_session, now);
          if (!t.begin(next_session, ci, s)) {
            c.exhausted = true;
            break;
          }
          ++next_session;
          ++c.active;
          last_start = now;
        }
        if (!c.dead && !c.exhausted && now < stop_ns) exhausted = false;
      }
    } else {
      while (k < schedule->size() &&
             ph.start_ns + (*schedule)[k] <= now) {
        Conn& c = *conns_[k % conns_.size()];
        const std::int64_t due = ph.start_ns + (*schedule)[k];
        if (!c.dead) {
          ConnSender s(ph, c, next_session, due);
          if (t.begin(next_session, k % conns_.size(), s)) {
            ++c.active;
            ++next_session;
          }
        }
        ph.lag_us.push_back(static_cast<double>(now - due) / 1000.0);
        last_start = now;
        ++k;
        now = now_ns();
      }
      exhausted = k >= schedule->size();
    }
    for (auto& c : conns_) flush(*c);

    bool idle = true;
    for (auto& c : conns_) {
      if (!c->dead && !c->inflight.empty()) idle = false;
    }
    if (exhausted && idle) break;
    if (exhausted && now - last_start > kDrainLimitNs) break;

    std::int64_t timeout = 50'000'000;
    if (tick_) timeout = std::min<std::int64_t>(timeout, next_tick - now);
    if (schedule != nullptr && k < schedule->size()) {
      timeout = ph.start_ns + (*schedule)[k] - now_ns();
    } else if (schedule == nullptr && !exhausted) {
      timeout = std::min<std::int64_t>(timeout, stop_ns - now);
    }
    pump(ph, t, std::max<std::int64_t>(timeout, 0));
  }

  for (auto& c : conns_) {
    ph.transport_errors += c->inflight.size();
    c->inflight.clear();
    c->active = 0;
  }
  if (schedule != nullptr && !schedule->empty()) {
    const double n = static_cast<double>(schedule->size());
    ph.intended_rate = n / (static_cast<double>(schedule->back()) / 1e9);
    ph.achieved_rate =
        n / (static_cast<double>(last_start - ph.start_ns) / 1e9);
  }
  return ph;
}

Phase Driver::closed(Traffic& t, std::size_t window, double seconds) {
  return run(t, window, seconds, nullptr);
}

Phase Driver::open(Traffic& t, const std::vector<std::int64_t>& schedule_ns) {
  return run(t, 0, 0, &schedule_ns);
}

std::string Driver::request(std::size_t ci, std::string_view line) {
  Conn& c = *conns_.at(ci);
  c.out.append(line);
  c.out.push_back('\n');
  while (!c.dead) {
    flush(c);
    const std::size_t nl = c.in.find('\n');
    if (nl != std::string::npos) {
      std::string resp = c.in.substr(0, nl);
      c.in.erase(0, nl + 1);
      return resp;
    }
    pollfd p{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
             0};
    if (::poll(&p, 1, 60000) <= 0) break;
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[1 << 16];
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        c.dead = true;
      } else if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  throw std::runtime_error("connection closed during a setup request");
}

namespace {

// Sessions are the lines of a list, one request each, dealt to the
// connections round-robin.
class ListTraffic : public Traffic {
 public:
  ListTraffic(const std::vector<std::string>& lines, std::size_t conns)
      : lines_(lines), next_(conns) {
    for (std::size_t c = 0; c < conns; ++c) next_[c] = c;
  }
  bool begin(std::uint32_t, std::size_t conn, Sender& out) override {
    if (next_[conn] >= lines_.size()) return false;
    out.send(static_cast<std::uint32_t>(next_[conn]), lines_[next_[conn]]);
    next_[conn] += next_.size();
    return true;
  }
  bool on_response(std::uint32_t, std::uint32_t, std::string_view,
                   Sender&) override {
    return true;
  }

 private:
  const std::vector<std::string>& lines_;
  std::vector<std::size_t> next_;
};

}  // namespace

std::vector<std::string> Driver::pipeline(
    const std::vector<std::string>& lines) {
  ListTraffic t(lines, conns_.size());
  const Phase ph = closed(t, 16, 0);
  std::vector<std::string> out(lines.size());
  for (const Record& r : ph.recs) {
    if (r.recv_ns >= 0) out[r.tag] = std::string(ph.response(r));
  }
  return out;
}

std::vector<int> connect_all(std::uint16_t port, std::size_t n) {
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) sys_fail("socket");
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
      ::close(fd);
      sys_fail("connect 127.0.0.1:" + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof one);
    fds.push_back(fd);
  }
  return fds;
}

// ---------------------------------------------------------------------------
// Server process
// ---------------------------------------------------------------------------

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& flags) {
  int errp[2];
  if (::pipe2(errp, O_CLOEXEC) != 0) sys_fail("pipe");
  std::vector<std::string> args{binary, "--listen", "127.0.0.1:0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int devnull = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  pid_ = ::fork();
  if (pid_ == 0) {
    // The server runs one nice level below the driver, so the driver's
    // single thread is not starved when the server's threads fill every
    // core: its lateness would otherwise show up as server latency.
    ::setpriority(PRIO_PROCESS, 0, kServerNice);
    ::dup2(devnull, 0);
    ::dup2(devnull, 1);
    ::dup2(errp[1], 2);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  const int spawn_errno = errno;
  ::close(devnull);
  ::close(errp[1]);
  err_fd_ = errp[0];
  if (pid_ < 0) {
    ::close(err_fd_);
    errno = spawn_errno;
    sys_fail("fork for " + binary);
  }
  // Wait for "pmonge-serve: listening on HOST:PORT".
  std::string text;
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  while (now_ns() < deadline) {
    pollfd p{err_fd_, POLLIN, 0};
    if (::poll(&p, 1, 1000) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(err_fd_, buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const auto at = text.find("listening on ");
    const auto nl = at == std::string::npos ? at : text.find('\n', at);
    if (nl != std::string::npos) {
      const std::string addr = text.substr(at + 13, nl - at - 13);
      port_ = static_cast<std::uint16_t>(
          std::stoul(addr.substr(addr.rfind(':') + 1)));
      return;
    }
  }
  stop();
  throw std::runtime_error("pmonge-serve did not start: " + text);
}

ServerProcess::~ServerProcess() { stop(); }

int ServerProcess::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::int64_t deadline = now_ns() + 20'000'000'000;
  while (true) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    // Keep the stderr pipe drained so the child never blocks on it.
    char buf[512];
    pollfd p{err_fd_, POLLIN, 0};
    if (::poll(&p, 1, 10) > 0) {
      if (::read(err_fd_, buf, sizeof buf) <= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  pid_ = -1;
  if (err_fd_ >= 0) ::close(err_fd_);
  err_fd_ = -1;
  return status;
}

double ServerProcess::cpu_us() const {
  // The process CPU-time clock counts in nanoseconds; /proc/PID/stat
  // counts only whole clock ticks (10 ms).
  clockid_t clk{};
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clk) != 0 || ::clock_gettime(clk, &ts) != 0) {
    sys_fail("server CPU clock");
  }
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

namespace {

cpu_set_t cpu_mask(const std::vector<int>& cpus, int except) {
  cpu_set_t m;
  CPU_ZERO(&m);
  for (const int c : cpus) {
    if (c != except) CPU_SET(c, &m);
  }
  return m;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t m;
  CPU_ZERO(&m);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof m, &m) != 0) sys_fail("sched_getaffinity");
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &m)) out.push_back(c);
  }
  return out;
}

void confine_self_away_from(int cpu, const std::vector<int>& all) {
  const cpu_set_t m = cpu_mask(all, cpu);
  if (::sched_setaffinity(0, sizeof m, &m) != 0) sys_fail("sched_setaffinity");
}

void ServerProcess::confine(int cpu, const std::vector<int>& all) const {
  if (cpu >= 0) {
    cpu_set_t m;
    CPU_ZERO(&m);
    CPU_SET(cpu, &m);
    // pmonge-serve --listen runs its event loop on the main thread.
    if (::sched_setaffinity(pid_, sizeof m, &m) != 0) sys_fail("sched_setaffinity");
    return;
  }
  // Every thread, in case one was started while the loop was confined.
  const cpu_set_t m = cpu_mask(all, -1);
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) sys_fail("opendir " + dir);
  while (const dirent* e = ::readdir(d)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    // A thread that has just exited cannot be moved; nothing to do.
    if (tid > 0) (void)::sched_setaffinity(tid, sizeof m, &m);
  }
  ::closedir(d);
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
