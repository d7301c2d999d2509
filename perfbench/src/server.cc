#include "server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>

extern char** environ;

namespace perfbench {

namespace {

/// Longest wait for the server to get ready or to exit after EOF.
constexpr int kPipeTimeoutMs = 120000;

void CloseFd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

}  // namespace

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  CloseFd(&in_);
  CloseFd(&out_);
  CloseFd(&err_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          std::string* error) {
  int in_pipe[2];
  int out_pipe[2];
  int err_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }
  if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  const int64_t spawn_ns = NowNs();
  const int rc =
      ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  in_ = in_pipe[1];
  out_ = out_pipe[0];
  err_ = err_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    *error = "spawn " + argv[0] + ": " + std::strerror(rc);
    Kill();
    return false;
  }

  // The ready line goes to stderr once the snapshot is loaded and the
  // engine's workers run; anything before it is kept for the error text.
  for (;;) {
    const size_t nl = err_buf_.find('\n');
    if (nl != std::string::npos) {
      const std::string line = err_buf_.substr(0, nl);
      err_buf_.erase(0, nl + 1);
      if (line.find("culinary_serve: ready") != std::string::npos) {
        ready_s_ = NsToS(NowNs() - spawn_ns);
        return true;
      }
      *error += line + "\n";
      continue;
    }
    pollfd pfd{err_, POLLIN, 0};
    const int polled = ::poll(&pfd, 1, kPipeTimeoutMs);
    if (polled < 0 && errno == EINTR) continue;
    if (polled <= 0) {
      *error += "culinary_serve did not get ready in time";
      Kill();
      return false;
    }
    char buf[4096];
    const ssize_t n = ::read(err_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error += err_buf_ + "culinary_serve exited before it was ready";
      Kill();
      return false;
    }
    err_buf_.append(buf, static_cast<size_t>(n));
  }
}

bool ServerProcess::Write(const std::string& data) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(in_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

bool ServerProcess::ReadLine(std::string* line) {
  size_t scan = out_pos_;
  for (;;) {
    const size_t nl = out_buf_.find('\n', scan);
    if (nl != std::string::npos) {
      line->assign(out_buf_, out_pos_, nl - out_pos_);
      out_pos_ = nl + 1;
      if (out_pos_ == out_buf_.size()) {
        out_buf_.clear();
        out_pos_ = 0;
      }
      return true;
    }
    scan = out_buf_.size();
    char buf[65536];
    const ssize_t n = ::read(out_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out_buf_.append(buf, static_cast<size_t>(n));
  }
}

bool ServerProcess::Finish(Exit* exit, std::string* error) {
  if (pid_ < 0) {
    *error = "culinary_serve is not running";
    return false;
  }
  CloseFd(&in_);
  // EOF starts the server's graceful drain; read both pipes until it closes
  // them by exiting, so neither can fill up and stall the drain.
  while (out_ >= 0 || err_ >= 0) {
    pollfd fds[2];
    int* owners[2];
    nfds_t count = 0;
    for (int* fd : {&out_, &err_}) {
      if (*fd < 0) continue;
      fds[count] = pollfd{*fd, POLLIN, 0};
      owners[count] = fd;
      ++count;
    }
    const int polled = ::poll(fds, count, kPipeTimeoutMs);
    if (polled < 0 && errno == EINTR) continue;
    if (polled <= 0) {
      *error = "culinary_serve did not exit after end of input";
      Kill();
      return false;
    }
    for (nfds_t i = 0; i < count; ++i) {
      if (fds[i].revents == 0) continue;
      char buf[65536];
      const ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        CloseFd(owners[i]);
      } else if (owners[i] == &err_) {
        err_buf_.append(buf, static_cast<size_t>(n));
      }
    }
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      *error = std::string("wait4: ") + std::strerror(errno);
      pid_ = -1;
      return false;
    }
  }
  pid_ = -1;
  exit->status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  exit->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  exit->stderr_text = err_buf_;
  return true;
}

std::vector<std::string> ServeArgv(const std::string& serve_binary,
                                   const WorldFiles& world) {
  std::vector<std::string> argv = {serve_binary, "--paper",
                                   "--snapshot-in=" + world.snapshot(),
                                   "--threads=2"};
  if (world.world_seed != 0) {
    argv.push_back("--seed=" + std::to_string(world.world_seed));
  }
  return argv;
}

bool RunClosedLoop(ServerProcess& server, const Traffic& traffic,
                   size_t window, double warmup_s, double seconds,
                   LoopResult* result, std::string* error) {
  struct InFlight {
    size_t index;
    int64_t sent_ns;  ///< when the write of the whole line returned
    bool measured;
  };
  const size_t pool = traffic.lines.size();
  const uint64_t per_line = traffic.answers_per_line;
  const int64_t start_ns = NowNs();
  const int64_t measure_from = start_ns + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t measure_until =
      measure_from + static_cast<int64_t>(seconds * 1e9);

  std::deque<InFlight> inflight;
  size_t next = 0;
  result->start_ns = -1;

  const auto send = [&](int64_t now) {
    const size_t index = next++ % pool;
    const bool measured = now >= measure_from;
    if (measured && result->start_ns < 0) result->start_ns = now;
    if (!server.Write(traffic.lines[index])) return false;
    inflight.push_back(InFlight{index, NowNs(), measured});
    return true;
  };

  for (size_t w = 0; w < window; ++w) {
    if (!send(NowNs())) {
      *error = "write to culinary_serve failed";
      return false;
    }
  }
  std::string answer;
  while (!inflight.empty()) {
    if (!server.ReadLine(&answer)) {
      *error = "culinary_serve closed its output mid-run";
      return false;
    }
    const int64_t now = NowNs();
    const InFlight line = inflight.front();
    inflight.pop_front();
    result->checked_answers += per_line;
    if (answer != traffic.reference[line.index]) {
      if (result->wrong_answers == 0) {
        std::fprintf(stderr,
                     "perfbench: answer differs from the reference\n"
                     "  request:   %s  got:       %s\n  expected:  %s\n",
                     traffic.lines[line.index].c_str(), answer.c_str(),
                     traffic.reference[line.index].c_str());
      }
      result->wrong_answers += per_line;
    }
    if (line.measured) {
      result->latency_us.push_back(NsToUs(now - line.sent_ns));
      result->done_ns.push_back(now);
    }
    if (now < measure_until && !send(now)) {
      *error = "write to culinary_serve failed";
      return false;
    }
  }
  if (result->done_ns.empty()) {
    *error = "no line was measured";
    return false;
  }
  return true;
}

}  // namespace perfbench
