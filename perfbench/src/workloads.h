#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::string workload;  ///< serve_point, serve_bulk or fig4_paper
  uint64_t seed = 1;     ///< traffic seed (serving), null-model seed (Fig 4)
  double seconds = 20;   ///< measured phase
  bool trace = false;    ///< per-layer traced run instead of the timed run
  WorldFiles world;
  std::string serve_binary;
  std::string trace_out;  ///< span file of the traced run
};

/// One run's outcome. `error` non-empty means the run itself broke (no
/// result line is printed); wrong answers are counted in `failed` instead.
struct Outcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
};

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr size_t kSetupRepeats = 5;

/// serve_point / serve_bulk: the real `culinary_serve` process over pipes.
void RunServeWorkload(const RunArgs& args, bool bulk, Outcome* out);

/// fig4_paper: CSV ingest, then full 22 x 4 Fig 4 tables in-process.
void RunFig4Workload(const RunArgs& args, Outcome* out);

/// The traced run: every per-layer metric, from spans around each module's
/// public calls.
void RunTraced(const RunArgs& args, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
