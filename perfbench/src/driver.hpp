// Single-threaded NDJSON load driver over a few TCP connections to
// pmonge-serve --listen, plus the server process it drives.
//
// One thread multiplexes every connection with ppoll: it blocks until a
// response arrives or the next request is due, never sleeps on a fixed
// poll interval.  Two disciplines:
//   * closed loop: each connection keeps `window` sessions in flight and
//     starts the next one when one finishes (capacity);
//   * open loop: sessions start at the instants of a precomputed Poisson
//     schedule whatever the responses do; each request is timed from its
//     due time (the scheduled arrival for a session's first request, the
//     arrival of the response it depends on for a follow-up).
// A session is one request, or a chain of dependent steps (register ->
// queries -> unregister).  Responses come back per connection in
// submission order, which is how they are matched to requests.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>


namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide epoch (the first call).
std::int64_t now_ns();

/// One request as the driver saw it.
struct Record {
  std::uint32_t tag = 0;      // the traffic's request descriptor
  std::uint32_t session = 0;
  std::int64_t due_ns = 0;    // when it was due (see header comment)
  std::int64_t recv_ns = -1;  // -1: no response (transport failure)
  std::int64_t arrived_ns = -1;  // when the kernel received the response
  std::uint64_t resp_off = 0; // response bytes within Phase::arena
  std::uint32_t resp_len = 0; // 0 when the traffic checked it on arrival
};

struct Phase {
  std::vector<Record> recs;
  std::string arena;           // every response, back to back
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;     // last response (or the drain deadline)
  std::size_t transport_errors = 0;
  // Open loop only.
  double intended_rate = 0;    // sessions/s the schedule asked for
  double achieved_rate = 0;    // sessions/s the driver actually started
  std::vector<double> lag_us;  // send lateness of every first request

  double wall_s() const { return (end_ns - start_ns) / 1e9; }
  std::string_view response(const Record& r) const {
    return std::string_view(arena).substr(r.resp_off, r.resp_len);
  }
};

/// Where a session appends its requests (always on its own connection).
class Sender {
 public:
  virtual ~Sender() = default;
  virtual void send(std::uint32_t tag, std::string_view line) = 0;
};

/// The sessions a Driver sends.  Implementations keep per-session state.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Start session `s` on connection `conn` by sending its first
  /// request(s).  False: no session left for that connection (its part
  /// of a fixed list is exhausted).
  virtual bool begin(std::uint32_t s, std::size_t conn, Sender& out) = 0;
  /// The response to request `tag` of session `s` arrived; send any
  /// follow-ups.  True when the session has finished.
  virtual bool on_response(std::uint32_t s, std::uint32_t tag,
                           std::string_view resp, Sender& out) = 0;
  /// False when on_response already checked the answer, so the driver
  /// need not keep the response bytes.
  virtual bool keep_responses() const { return true; }
};

class Driver {
 public:
  /// Takes ownership of connected sockets.
  explicit Driver(std::vector<int> fds);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Called from the driver loop about every `every_ns` during a phase
  /// (for moving the server between CPUs); empty to disable.
  void set_tick(std::int64_t every_ns, std::function<void()> fn) {
    tick_every_ns_ = every_ns;
    tick_ = std::move(fn);
  }

  /// Closed loop: `window` sessions in flight per connection, new ones
  /// started until `seconds` have passed (seconds <= 0: until the
  /// traffic has no session left on any connection), then drained.
  Phase closed(Traffic& t, std::size_t window, double seconds);

  /// Open loop: session k starts at start + schedule_ns[k] on connection
  /// k mod (number of connections), then the phase drains.
  Phase open(Traffic& t, const std::vector<std::int64_t>& schedule_ns);

  /// Blocking round trip of one line on connection `c` (setup, stats).
  std::string request(std::size_t c, std::string_view line);

  /// Every line pipelined over all connections; responses align with
  /// `lines`.
  std::vector<std::string> pipeline(const std::vector<std::string>& lines);

 private:
  struct Conn;
  class ConnSender;
  Phase run(Traffic& t, std::size_t window, double seconds,
            const std::vector<std::int64_t>* schedule);
  bool pump(Phase& ph, Traffic& t, std::int64_t timeout_ns);
  void flush(Conn& c);

  std::vector<std::unique_ptr<Conn>> conns_;
  std::int64_t tick_every_ns_ = 0;
  std::function<void()> tick_;
};

/// pmonge-serve --listen 127.0.0.1:0, started as a child process.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& flags);
  ~ServerProcess();  // SIGTERM, then waits for the child
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// utime + stime of the whole process, microseconds.
  double cpu_us() const;
  /// Peak resident set (VmHWM), MiB.
  double peak_rss_mb() const;
  /// Confine the server's event-loop thread to CPU `cpu`; cpu < 0 lets
  /// every server thread run on `all` again.
  void confine(int cpu, const std::vector<int>& all) const;
  /// Graceful stop; returns the exit status (waits).
  int stop();

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus();

/// Confine the calling thread to `all` except `cpu` (cpu < 0: all).
void confine_self_away_from(int cpu, const std::vector<int>& all);

/// Open `n` blocking-connect sockets to 127.0.0.1:port.
std::vector<int> connect_all(std::uint16_t port, std::size_t n);

}  // namespace perfbench
