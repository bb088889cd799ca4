// pmonge-serve as a process: the binary's stdin/stdout front end and
// its --listen front end, driven from outside the way a shell or a
// client would drive them.
//
//   * stdin from a regular file and from /dev/null (fds epoll refuses),
//     a file far longer than the inflight window, a register line over 1 MiB, an unterminated last line, stdout
//     closed early, and SIGTERM while a query is in flight;
//   * --listen 127.0.0.1:0 under a closed loop of 32 connections and an
//     open loop at a fixed rate: every answer ok, a generous p99 bound,
//     and a graceful drain on SIGTERM;
//   * startup flag checks that must exit 2.
//
// PMONGE_SERVE_BIN names the binary under test (set by CMake).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rpc/client.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace pmonge {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// A pmonge-serve child.  stdout and stderr are pipes to the test;
/// stdin is a pipe too unless `stdin_path` names a file to read.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& flags,
                        const char* stdin_path = nullptr) {
    int in[2] = {-1, -1}, out[2], err[2];
    if (stdin_path == nullptr) {
      EXPECT_EQ(::pipe2(in, O_CLOEXEC), 0);
    }
    EXPECT_EQ(::pipe2(out, O_CLOEXEC), 0);
    EXPECT_EQ(::pipe2(err, O_CLOEXEC), 0);
    posix_spawn_file_actions_t fa;
    ::posix_spawn_file_actions_init(&fa);
    if (stdin_path != nullptr) {
      ::posix_spawn_file_actions_addopen(&fa, 0, stdin_path, O_RDONLY, 0);
    } else {
      ::posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    }
    ::posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    ::posix_spawn_file_actions_adddup2(&fa, err[1], 2);
    // The suite ignores SIGPIPE (a child may exit while we still write
    // to it); the child starts with the default dispositions.
    posix_spawnattr_t attr;
    ::posix_spawnattr_init(&attr);
    sigset_t defaults;
    ::sigemptyset(&defaults);
    ::sigaddset(&defaults, SIGPIPE);
    ::sigaddset(&defaults, SIGTERM);
    ::posix_spawnattr_setsigdefault(&attr, &defaults);
    ::posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGDEF);
    std::vector<std::string> args{PMONGE_SERVE_BIN};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    EXPECT_EQ(::posix_spawn(&pid_, PMONGE_SERVE_BIN, &fa, &attr, argv.data(),
                            environ),
              0);
    ::posix_spawn_file_actions_destroy(&fa);
    ::posix_spawnattr_destroy(&attr);
    if (stdin_path == nullptr) {
      ::close(in[0]);
      in_ = in[1];
    }
    ::close(out[1]);
    ::close(err[1]);
    out_ = out[0];
    err_ = err[0];
  }

  ~ServeProcess() {
    close_stdin();
    close_stdout();
    if (err_ >= 0) ::close(err_);
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }

  void write_stdin(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t k = ::write(in_, bytes.data() + off, bytes.size() - off);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return;  // the child is gone; its exit status tells why
      off += static_cast<std::size_t>(k);
    }
  }
  void close_stdin() {
    if (in_ >= 0) ::close(in_);
    in_ = -1;
  }
  void close_stdout() {
    if (out_ >= 0) ::close(out_);
    out_ = -1;
  }

  /// The next stdout line, or "<eof>" at the end of the stream (or after
  /// 20 s without data).
  std::string stdout_line() { return next_line(out_, out_buf_); }
  /// The next stderr line, likewise.
  std::string stderr_line() { return next_line(err_, err_buf_); }

  /// stdout until EOF.
  std::string stdout_rest() { return rest(out_, out_buf_); }
  /// stderr until EOF.
  std::string stderr_rest() { return rest(err_, err_buf_); }

  /// Exit status (a signal death reads as 128 + signal); -1 on timeout.
  int wait_exit(std::chrono::seconds limit = 30s) {
    const auto deadline = Clock::now() + limit;
    while (true) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        reaped_ = true;
        if (WIFEXITED(status)) return WEXITSTATUS(status);
        return 128 + WTERMSIG(status);
      }
      if (Clock::now() >= deadline) return -1;
      std::this_thread::sleep_for(5ms);
    }
  }

 private:
  static bool fill(int fd, std::string& buf) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 20000) <= 0) return false;
    char chunk[65536];
    const ssize_t k = ::read(fd, chunk, sizeof(chunk));
    if (k <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(k));
    return true;
  }
  static std::string next_line(int fd, std::string& buf) {
    while (true) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      if (fd < 0 || !fill(fd, buf)) return "<eof>";
    }
  }
  static std::string rest(int fd, std::string& buf) {
    while (fd >= 0 && fill(fd, buf)) {
    }
    return std::exchange(buf, std::string());
  }

  pid_t pid_ = -1;
  bool reaped_ = false;
  int in_ = -1, out_ = -1, err_ = -1;
  std::string out_buf_, err_buf_;
};

struct IgnoreSigpipe : ::testing::Environment {
  void SetUp() override { std::signal(SIGPIPE, SIG_IGN); }
};
const auto* const kIgnoreSigpipe =
    ::testing::AddGlobalTestEnvironment(new IgnoreSigpipe);

std::string ping(int id) {
  return R"({"op":"ping","id":)" + std::to_string(id) + "}";
}
std::string pong(int id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"ok":true,"result":{"pong":true}})";
}

/// A file under the test temp dir, removed on scope exit.
struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& contents) {
    path = std::filesystem::path(::testing::TempDir()) /
           ("pmonge-serve-stdin-" + std::to_string(::getpid()) + ".ndjson");
    std::ofstream(path, std::ios::binary) << contents;
  }
  ~TempFile() { std::filesystem::remove(path); }
};

// ---------------------------------------------------------------------------
// stdin mode
// ---------------------------------------------------------------------------

TEST(ServeStdin, ReadsRequestsFromARegularFile) {
  TempFile f(ping(1) + "\n" +
             R"({"op":"register_random","id":2,"rows":32,"cols":32,"seed":7})"
             "\n" R"({"op":"rowmin","id":3,"array":0,"row":5})" "\n");
  ServeProcess p({}, f.path.c_str());
  const std::string out = p.stdout_rest();
  EXPECT_EQ(p.wait_exit(), 0) << p.stderr_rest();
  EXPECT_EQ(out.find(pong(1) + "\n"), 0u) << out;
  EXPECT_NE(out.find(R"({"id":2,"ok":true,"result":{"array":0}})"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(R"({"id":3,"ok":true)"), std::string::npos) << out;
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3) << out;
}

TEST(ServeStdin, AnswersEveryLineOfAFileMuchLongerThanTheWindow) {
  // One read of the file frames far more lines than --max-inflight and
  // the overload valve admit; stdin holds the rest instead of refusing
  // them, so every line gets its own answer.
  constexpr int kLines = 2000;
  std::string in, want;
  for (int i = 1; i <= kLines; ++i) {
    in += ping(i) + "\n";
    want += pong(i) + "\n";
  }
  TempFile f(in);
  ServeProcess p({}, f.path.c_str());
  const std::string out = p.stdout_rest();
  EXPECT_EQ(p.wait_exit(), 0) << p.stderr_rest();
  EXPECT_EQ(out, want);
}

TEST(ServeStdin, DevNullExitsZeroWithNoOutput) {
  ServeProcess p({}, "/dev/null");
  EXPECT_EQ(p.stdout_rest(), "");
  EXPECT_EQ(p.wait_exit(), 0);
  EXPECT_EQ(p.stderr_rest(), "");
}

TEST(ServeStdin, AnswersARegisterLineOverOneMebibyte) {
  // (i - j)^2 is Monge; 512 x 512 cells print to about 1.6 MB.
  constexpr int kN = 512;
  std::string line =
      R"({"op":"register_dense","id":1,"rows":512,"cols":512,"data":[)";
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      if (i + j > 0) line += ',';
      line += std::to_string((i - j) * (i - j));
    }
  }
  line += "]}";
  ASSERT_GT(line.size(), std::size_t{1} << 20);
  ServeProcess p({});
  p.write_stdin(line + "\n" +
                R"({"op":"rowmin","id":2,"array":0,"row":300})" "\n");
  p.close_stdin();
  EXPECT_EQ(p.stdout_line(), R"({"id":1,"ok":true,"result":{"array":0}})");
  EXPECT_EQ(p.stdout_line(),
            R"({"id":2,"ok":true,"result":{"col":300,"value":0}})");
  EXPECT_EQ(p.stdout_line(), "<eof>");
  EXPECT_EQ(p.wait_exit(), 0);
}

TEST(ServeStdin, AnswersAnUnterminatedLastLine) {
  ServeProcess p({});
  p.write_stdin(ping(1) + "\n" + ping(2));
  p.close_stdin();
  EXPECT_EQ(p.stdout_line(), pong(1));
  EXPECT_EQ(p.stdout_line(), pong(2));
  EXPECT_EQ(p.stdout_line(), "<eof>");
  EXPECT_EQ(p.wait_exit(), 0);
}

TEST(ServeStdin, StdoutClosedEarlyExitsZeroWithAnAccountingLine) {
  ServeProcess p({});
  p.close_stdout();
  p.write_stdin(ping(1) + "\n" + ping(2) + "\n");
  EXPECT_EQ(p.wait_exit(), 0);
  const std::string err = p.stderr_rest();
  EXPECT_NE(err.find("pmonge-serve: stdout closed; exiting (lines="),
            std::string::npos)
      << err;
}

TEST(ServeStdin, SigtermAnswersTheQueryInFlightThenExitsZero) {
  ServeProcess p({});
  // A search over a whole 512 x 512 array is priced above one pool
  // hand-off, so it queues for the worker.  The three lines arrive in
  // one write and are read together, so once the register answer is
  // back the search has been read too.
  p.write_stdin(
      R"({"op":"register_random","id":1,"rows":512,"cols":512,"seed":3})"
      "\n" R"({"op":"submatrix_min","id":2,"array":0,"r0":0,"r1":511,)"
      R"("c0":0,"c1":511})" "\n" +
      ping(3) + "\n");
  ASSERT_EQ(p.stdout_line(), R"({"id":1,"ok":true,"result":{"array":0}})");
  ASSERT_EQ(::kill(p.pid(), SIGTERM), 0);
  EXPECT_NE(p.stdout_line().find(R"({"id":2,"ok":true,"result":)"),
            std::string::npos);
  EXPECT_EQ(p.stdout_line(), pong(3));
  EXPECT_EQ(p.stdout_line(), "<eof>");
  EXPECT_EQ(p.wait_exit(), 0);
  const std::string err = p.stderr_rest();
  EXPECT_NE(err.find("pmonge-serve: drained"), std::string::npos) << err;
}

TEST(ServeFlags, MaxInflightBelowOneExitsTwo) {
  for (const char* v : {"0", "-3"}) {
    ServeProcess p({"--max-inflight", v}, "/dev/null");
    EXPECT_EQ(p.wait_exit(), 2) << "--max-inflight " << v;
    EXPECT_NE(p.stderr_rest().find("--max-inflight"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// --listen under load
// ---------------------------------------------------------------------------

/// pmonge-serve --listen 127.0.0.1:0, its announced port, and a graceful
/// drain check on the way out.
struct ListeningServer {
  ServeProcess proc{{"--listen", "127.0.0.1:0"}};
  std::uint16_t port = 0;

  ListeningServer() {
    const std::string line = proc.stderr_line();
    const std::string key = "pmonge-serve: listening on 127.0.0.1:";
    EXPECT_EQ(line.rfind(key, 0), 0u) << line;
    if (line.rfind(key, 0) == 0) {
      port = static_cast<std::uint16_t>(std::stoul(line.substr(key.size())));
    }
  }

  /// SIGTERM, then `pmonge-serve: drained` on stderr and exit 0.
  void expect_drain_on_sigterm() {
    ASSERT_EQ(::kill(proc.pid(), SIGTERM), 0);
    EXPECT_EQ(proc.wait_exit(), 0);
    const std::string err = proc.stderr_rest();
    EXPECT_NE(err.find("pmonge-serve: drained"), std::string::npos) << err;
  }
};

/// A seeded 55/20/15/10 rowmin / rowmax / staircase_rowmin / string_edit
/// stream over one connection's own 64x64 operands.
struct QueryMix {
  Rng rng;
  std::int64_t monge = 0, staircase = 0, next_id = 1;

  QueryMix(rpc::Client& c, std::uint64_t seed) : rng(seed) {
    const auto array_of = [&](const std::string& req) -> std::int64_t {
      const std::string resp = c.request(req);
      const std::size_t at = resp.find(R"("array":)");
      EXPECT_NE(at, std::string::npos) << resp;
      return at == std::string::npos ? 0 : std::stoll(resp.substr(at + 8));
    };
    monge = array_of(
        R"({"op":"register_random","id":0,"rows":64,"cols":64,"seed":)" +
        std::to_string(seed) + "}");
    staircase = array_of(
        R"({"op":"register_random","id":0,"rows":64,"cols":64,)"
        R"("kind":"staircase","seed":)" +
        std::to_string(seed + 1) + "}");
  }

  std::string next() {
    const std::string id = std::to_string(next_id++);
    const double dice = rng.uniform01();
    const std::string row = std::to_string(rng.uniform_int(0, 63));
    if (dice < 0.75) {
      return std::string(R"({"op":")") + (dice < 0.55 ? "rowmin" : "rowmax") +
             R"(","id":)" + id + R"(,"array":)" + std::to_string(monge) +
             R"(,"row":)" + row + "}";
    }
    if (dice < 0.9) {
      return R"({"op":"staircase_rowmin","id":)" + id + R"(,"array":)" +
             std::to_string(staircase) + R"(,"row":)" + row + "}";
    }
    static const char* kWords[] = {"kitten",  "sitting",  "monge",
                                   "montage", "parallel", "partial"};
    return R"({"op":"string_edit","id":)" + id + R"(,"x":")" +
           kWords[rng.uniform_int(0, 5)] + R"(","y":")" +
           kWords[rng.uniform_int(0, 5)] + "\"}";
  }
};

bool answered_ok(const std::string& resp) {
  return resp.find(R"("ok":true)") != std::string::npos;
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

TEST(ServeListen, ClosedLoopOf32ConnectionsThenDrainOnSigterm) {
  ListeningServer srv;
  ASSERT_NE(srv.port, 0);
  constexpr int kConns = 32;
  constexpr std::size_t kWindow = 4;
  const auto until = Clock::now() + 5s;
  std::vector<std::vector<double>> lat(kConns);
  std::vector<std::vector<std::string>> failures(kConns);
  std::vector<std::thread> threads;
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      auto& bad = failures[i];
      try {
        rpc::Client c("127.0.0.1", srv.port);
        QueryMix mix(c, 42 + i);
        std::deque<Clock::time_point> sent;
        const auto send_one = [&] {
          sent.push_back(Clock::now());
          c.send_line(mix.next());
        };
        for (std::size_t i = 0; i < kWindow; ++i) send_one();
        while (!sent.empty()) {
          const std::string resp = c.recv_line();
          const auto now = Clock::now();
          lat[i].push_back(micros(now - sent.front()));
          sent.pop_front();
          if (!answered_ok(resp)) bad.push_back(resp);
          if (now < until) send_one();
        }
      } catch (const std::exception& e) {
        bad.push_back(e.what());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<double> all;
  for (int t = 0; t < kConns; ++t) {
    const auto& bad = failures[static_cast<std::size_t>(t)];
    EXPECT_TRUE(bad.empty()) << "conn " << t << ": " << bad.size()
                             << " failures, first: " << bad.front();
    all.insert(all.end(), lat[static_cast<std::size_t>(t)].begin(),
               lat[static_cast<std::size_t>(t)].end());
  }
  ASSERT_FALSE(all.empty());
  std::sort(all.begin(), all.end());
  const double p99 = all[(all.size() - 1) * 99 / 100];
  std::printf("closed loop: %zu answers, p99 %.1f us\n", all.size(), p99);
  // A generous bound for a shared machine; sanitizer builds are too slow
  // for any latency bound to mean something.
  if (!kSanitized) {
    EXPECT_LT(p99, 50000.0);
  }
  srv.expect_drain_on_sigterm();
}

TEST(ServeListen, OpenLoopAtAFixedRateAnswersEveryRequest) {
  ListeningServer srv;
  ASSERT_NE(srv.port, 0);
  constexpr int kConns = 8;
  constexpr double kRatePerConn = 2000.0 / kConns;
  const auto start = Clock::now();
  const auto until = start + 3s;
  std::vector<std::size_t> sent_count(kConns), ok_count(kConns);
  std::vector<std::vector<std::string>> failures(kConns);
  std::vector<std::thread> threads;
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      try {
        rpc::Client c("127.0.0.1", srv.port);
        QueryMix mix(c, 7 + i);
        std::mutex mu;
        std::condition_variable cv;
        std::size_t outstanding = 0;
        bool done = false;
        // The sender keeps a Poisson schedule whatever the answers do;
        // the receiver reads in order until every sent line is answered.
        // A server fault on either side is recorded as a failure; the
        // receiver is joined on every path.
        std::thread receiver([&] {
          try {
            while (true) {
              {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return outstanding > 0 || done; });
                if (outstanding == 0) return;
              }
              const std::string resp = c.recv_line();
              std::lock_guard<std::mutex> lock(mu);
              --outstanding;
              if (answered_ok(resp)) {
                ++ok_count[i];
              } else {
                failures[i].push_back(resp);
              }
            }
          } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(mu);
            failures[i].push_back(e.what());
          }
        });
        try {
          Rng arrivals(1000 + i);
          auto next = start;
          while (true) {
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    -std::log1p(-arrivals.uniform01()) / kRatePerConn));
            if (next >= until) break;
            std::this_thread::sleep_until(next);
            {
              std::lock_guard<std::mutex> lock(mu);
              ++outstanding;
            }
            cv.notify_one();
            c.send_line(mix.next());
            ++sent_count[i];
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          failures[i].push_back(e.what());
          // Answers to lines never sent will not come: end the receiver.
          ::shutdown(c.fd(), SHUT_RDWR);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          done = true;
        }
        cv.notify_one();
        receiver.join();
      } catch (const std::exception& e) {
        failures[i].push_back(e.what());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::size_t sent = 0;
  for (int t = 0; t < kConns; ++t) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_TRUE(failures[i].empty()) << "conn " << t << ": "
                                     << failures[i].size()
                                     << " failures, first: "
                                     << failures[i].front();
    EXPECT_EQ(ok_count[i], sent_count[i]) << "conn " << t;
    sent += sent_count[i];
  }
  // About 6000 arrivals in 3 s; far fewer means the schedule never ran.
  EXPECT_GT(sent, 1000u);
  srv.expect_drain_on_sigterm();
}

}  // namespace
}  // namespace pmonge
