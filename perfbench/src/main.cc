// perfbench — the repository benchmark's measuring binary. `perfbench/run.py`
// builds it next to `culinary_serve` and calls it; see perfbench/WORKLOADS.md.
//
//   perfbench prep --world-seed=N --out=DIR
//       untimed prep: generate the paper-scale world, write its binary
//       snapshot and its CSV export into DIR
//   perfbench run --workload=W --seed=N --seconds=S --trace=0|1
//                 --world=DIR --world-seed=N --serve=PATH [--trace-out=FILE]
//       one run; the last stdout line is the JSON result
//
// Exit status: 0 on a complete, correct run; 1 when an answer was wrong
// (the result line is still printed); 2 on usage errors; 3 when the run
// could not be carried out or the build must not be measured.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "build_info.h"
#include "common.h"
#include "datagen/world.h"
#include "flavor/registry_io.h"
#include "snapshot/snapshot.h"
#include "workloads.h"

namespace {

using perfbench::Report;

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// The environment every result is tagged with.
std::string EnvironmentJson() {
  const char* obs_env = std::getenv("CULINARYLAB_OBS");
  std::string out = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"compiler\": \"" + std::string(PERFBENCH_COMPILER) + "\"";
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"march\": \"" + std::string(PERFBENCH_MARCH) + "\"";
  out += ", \"culinarylab_obs\": \"" + std::string(PERFBENCH_OBS) + "\"";
  out += ", \"culinarylab_obs_env\": \"" +
         std::string(obs_env != nullptr ? obs_env : "") + "\"";
  out += ", \"sanitize\": \"" + std::string(PERFBENCH_SANITIZE) + "\"}";
  return out;
}

/// Numbers from a sanitized or unoptimized build measure the
/// instrumentation, not the code: refuse them.
bool RefuseBuild(std::string* why) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (sanitize != "OFF" && sanitize != "0" && !sanitize.empty()) {
    *why = "sanitizer build (CULINARYLAB_SANITIZE=" + sanitize + ")";
    return true;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return true;
#endif
  if (build_type == "Debug" || build_type.empty()) {
    *why = "unoptimized build (CMAKE_BUILD_TYPE=" + build_type + ")";
    return true;
  }
#if !defined(__OPTIMIZE__)
  *why = "unoptimized build";
  return true;
#endif
  return false;
}

int Prep(uint64_t world_seed, const std::string& dir) {
  using namespace culinary;  // NOLINT(build/namespaces)
  datagen::WorldSpec spec = datagen::WorldSpec::Default();
  spec.seed = perfbench::EffectiveWorldSeed(world_seed);
  auto generated = datagen::GenerateWorld(spec);
  if (!generated.ok()) {
    std::fprintf(stderr, "perfbench prep: %s\n",
                 generated.status().ToString().c_str());
    return 3;
  }
  snapshot::LoadedWorld world;
  world.registry_ptr = std::move(generated.value().universe.registry);
  world.database = std::move(generated.value().database);
  perfbench::WorldFiles files{dir, world_seed};
  Status status = snapshot::WriteSnapshotForWorld(
      world, snapshot::DigestGeneratedWorld(spec.seed, /*small_world=*/false),
      files.snapshot());
  if (status.ok()) {
    status = flavor::SaveRegistryCsv(world.registry(), files.registry_prefix());
  }
  if (status.ok()) status = world.db().SaveCsv(files.recipes_csv());
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench prep: %s\n", status.ToString().c_str());
    return 3;
  }
  std::fprintf(stderr, "perfbench prep: %zu recipes written to %s\n",
               world.db().num_recipes(), dir.c_str());
  return 0;
}

int Run(perfbench::RunArgs args) {
  std::string why;
  const std::string env = EnvironmentJson();
  Report::Note("env " + env);
  if (RefuseBuild(&why)) {
    std::fprintf(stderr, "perfbench: REFUSING to report numbers from a %s\n",
                 why.c_str());
    return 3;
  }
  Report::Note("run {\"workload\": \"" + args.workload +
               "\", \"traffic_seed\": " + std::to_string(args.seed) +
               ", \"world_seed\": " + std::to_string(args.world.world_seed) +
               ", \"effective_world_seed\": " +
               std::to_string(perfbench::EffectiveWorldSeed(args.world.world_seed)) +
               ", \"seconds\": " + perfbench::JsonNumber(args.seconds) +
               ", \"trace\": " + (args.trace ? "1" : "0") + "}");

  perfbench::Outcome outcome;
  if (args.trace) {
    perfbench::RunTraced(args, &outcome);
  } else if (args.workload == "fig4_paper") {
    perfbench::RunFig4Workload(args, &outcome);
  } else {
    perfbench::RunServeWorkload(args, args.workload == "serve_bulk", &outcome);
  }
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 outcome.error.c_str());
    return 3;
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "perfbench: nothing was attempted\n");
    return 3;
  }
  static constexpr const char* kEndToEnd[] = {
      "setup_s", "throughput_rps", "latency_p50_us", "latency_p90_us",
      "ok_frac", "peak_rss_mb",    "solve_s"};
  if (!args.trace) {
    for (const char* name : kEndToEnd) {
      if (!outcome.report.Has(name)) {
        std::fprintf(stderr, "perfbench: no value for %s; no result\n", name);
        return 3;
      }
    }
  }
  const bool correct = outcome.failed == 0;
  std::printf("%s\n", outcome.report
                          .ResultLine(correct, outcome.attempted,
                                      outcome.failed)
                          .c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu answers were wrong\n",
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.attempted));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A server that dies mid-run must surface as a failed write, not kill us.
  signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench prep|run --flag=value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  perfbench::RunArgs args;
  std::string out_dir;
  uint64_t trace = 0;
  uint64_t seconds = 20;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = eq != std::string::npos;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      ok = ok && ParseUint(value, &args.seed);
    } else if (key == "--seconds") {
      ok = ok && ParseUint(value, &seconds) && seconds > 0;
    } else if (key == "--trace") {
      ok = ok && ParseUint(value, &trace) && trace <= 1;
    } else if (key == "--world") {
      args.world.dir = value;
    } else if (key == "--world-seed") {
      ok = ok && ParseUint(value, &args.world.world_seed);
    } else if (key == "--serve") {
      args.serve_binary = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--out") {
      out_dir = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  args.seconds = static_cast<double>(seconds);
  args.trace = trace == 1;

  if (command == "prep") {
    if (out_dir.empty()) {
      std::fprintf(stderr, "perfbench prep: --out is required\n");
      return 2;
    }
    return Prep(args.world.world_seed, out_dir);
  }
  if (command == "run") {
    if (args.workload != "serve_point" && args.workload != "serve_bulk" &&
        args.workload != "fig4_paper") {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    if (args.world.dir.empty() || args.serve_binary.empty()) {
      std::fprintf(stderr, "perfbench run: --world and --serve are required\n");
      return 2;
    }
    return Run(std::move(args));
  }
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", command.c_str());
  return 2;
}
