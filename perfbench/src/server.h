#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "traffic.h"

namespace perfbench {

/// One `culinary_serve` child on three pipes. The destructor kills and reaps
/// a child that was not finished cleanly, so no server outlives a run.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` and blocks until the server prints its ready line on
  /// stderr. `ready_s()` is then the time from spawn to that line.
  bool Start(const std::vector<std::string>& argv, std::string* error);
  double ready_s() const { return ready_s_; }

  /// Writes `data` to the server's stdin in full.
  bool Write(const std::string& data);

  /// Reads the next stdout line (without '\n') into `line`.
  bool ReadLine(std::string* line);

  struct Exit {
    int status = -1;          ///< exit code, or -1 when not a normal exit
    double peak_rss_mb = 0;   ///< ru_maxrss of the child, from wait4
    std::string stderr_text;  ///< everything after the ready line
  };
  /// Closes stdin (the server drains and exits on EOF), reads both pipes to
  /// EOF and reaps the child.
  bool Finish(Exit* exit, std::string* error);

 private:
  void Kill();

  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  int err_ = -1;
  double ready_s_ = 0.0;
  std::string out_buf_;
  size_t out_pos_ = 0;
  std::string err_buf_;
};

/// `culinary_serve` flags for the serving workloads: the paper-scale world
/// from the prepared snapshot, 2 engine workers, default queue and batch
/// bounds. `--paper`/`--seed` only let the server check the snapshot's
/// world digest; no world is generated.
std::vector<std::string> ServeArgv(const std::string& serve_binary,
                                   const WorldFiles& world);

/// What one closed-loop phase measured.
struct LoopResult {
  std::vector<double> latency_us;  ///< per measured line: write → answer
  std::vector<int64_t> done_ns;    ///< per measured line: answer read
  int64_t start_ns = 0;            ///< first measured line about to be sent
  uint64_t checked_answers = 0;    ///< every answer, warm-up included
  uint64_t wrong_answers = 0;
};

/// Drives `server` in a closed loop with `window` lines outstanding, cycling
/// through `traffic.lines`. Lines written during the first `warmup_s` are
/// checked but not measured; lines written in the following `seconds` are
/// measured. Every answer is compared byte for byte with the reference.
bool RunClosedLoop(ServerProcess& server, const Traffic& traffic,
                   size_t window, double warmup_s, double seconds,
                   LoopResult* result, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
