// culinary_serve — resident pairing-query server over line-delimited JSON.
//
// Loads the world ONCE into an immutable serving snapshot, then answers
// point queries from stdin (or a requests file), one JSON object per line,
// one response line per request (see src/serving/protocol.h for the wire
// format):
//
//   culinary_serve --small
//   culinary_serve --snapshot-in=world.snap
//   loadgen --small --count=1000 | culinary_serve --small
//
// The world comes from a generated spec or from a binary world snapshot.
// The snapshot load is hardened: corruption or a stale digest quarantines
// the file and rebuilds from source (kBestEffort), so a damaged snapshot
// degrades startup, never kills it.
//
// The thread that reads a line also answers it: a point line through
// `QueryEngine::Execute`, a batch line as one `ExecuteBatch` over its
// sub-requests against one pinned snapshot. Lines are split by getline(3)
// and each answer goes out in one write(2) loop. One line is answered at a
// time, so nothing queues and nothing is shed; each request runs under its
// own deadline from the start of its evaluation (a batch line's suggests
// share one sweep, which their deadlines all count). The engine's
// --threads worker pool and its watchdog serve queued `Submit` callers,
// and this server has none: the pool idles.
//
// Admin ops on the wire: {"op":"reload"} rebuilds the world from the same
// source through the hardened reload path (up to 3 attempts per reload; 3
// failed reloads in a row open a circuit breaker for 1 s; a failed reload
// leaves the engine serving its last good snapshot in "degraded") and
// RCU-swaps it in; {"op":"health"} reports the health state, generation
// and counters; {"op":"shutdown"} drains and exits 0.
//
// SIGINT/SIGTERM likewise end the loop and drain gracefully: the line being
// evaluated finishes, metrics are flushed, exit status 0. An answer still
// blocked on a full stdout when the signal lands is cut, not waited on.

#include <pthread.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "datagen/world.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "robustness/circuit_breaker.h"
#include "serving/engine.h"
#include "serving/health.h"
#include "serving/protocol.h"
#include "serving/reload.h"
#include "serving/snapshot.h"
#include "snapshot/snapshot.h"

namespace {

using namespace culinary;  // NOLINT(build/namespaces)

volatile std::sig_atomic_t g_signal = 0;

extern "C" void HandleSignal(int sig) { g_signal = sig; }

/// Installs the drain handler WITHOUT SA_RESTART: a SIGINT/SIGTERM landing
/// while the serve loop is blocked in read(2) or write(2) ends the call
/// with EINTR instead of restarting it, so the loop exits and the drain
/// runs.
void InstallSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

struct ServeArgs {
  bool small = true;
  uint64_t seed = 0;
  std::string snapshot_in;
  size_t threads = 4;
  size_t null_recipes = 0;
  bool slo = false;
  uint64_t slo_latency_us = 0;
  std::string requests_file;
  std::string metrics_out;
};

/// The world source the flags selected, as a reusable SnapshotSource: the
/// initial load and every hardened reload run the exact same recipe, so a
/// reload can never observe a world the startup path could not have built.
serving::SnapshotSource MakeSource(const ServeArgs& args) {
  serving::SnapshotSource source;
  source.snapshot_options.null_recipes = args.null_recipes;
  const datagen::WorldSpec spec =
      datagen::WorldSpec::For(args.small, args.seed);
  source.rebuild = [spec]() -> Result<snapshot::LoadedWorld> {
    auto generated = datagen::GenerateWorld(spec);
    if (!generated.ok()) return generated.status();
    snapshot::LoadedWorld world;
    world.registry_ptr = std::move(generated.value().universe.registry);
    world.database = std::move(generated.value().database);
    return world;
  };
  if (!args.snapshot_in.empty()) {
    source.snapshot_path = args.snapshot_in;
    source.expected_digest =
        snapshot::DigestGeneratedWorld(spec.seed, args.small);
    source.policy = robustness::ErrorPolicy::kBestEffort;
    // The server only reads the snapshot; refreshing it is the writer's job
    // (a rewrite here would race a concurrent publisher).
    source.rewrite_snapshot = false;
  }
  return source;
}

/// Writes `answer` and its '\n' to stdout, retrying partial writes and
/// EINTR so that no answer is cut, until a drain signal arrives: then a
/// write the signal interrupted ends the answer there, since the reader may
/// never make room for the rest. Gives up on a write error.
void WriteLine(std::string answer) {
  answer.push_back('\n');
  const char* data = answer.data();
  size_t left = answer.size();
  while (left > 0) {
    const ssize_t n = ::write(STDOUT_FILENO, data, left);
    if (n < 0 && errno == EINTR && g_signal == 0) continue;
    if (n <= 0) return;
    data += n;
    left -= static_cast<size_t>(n);
    // A blocking write stops short only when a signal lands mid-write.
    if (left > 0 && g_signal != 0) return;
  }
}

int64_t SteadyNowS() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `{"id":…,"op":…,"ok":true`, the head every successful admin answer
/// shares; the caller appends its fields and the closing brace.
std::string AdminHead(const std::string& id, const char* op) {
  std::string out = "{\"id\":\"";
  json::AppendEscaped(out, id);
  out += "\",\"op\":\"";
  out += op;
  out += "\",\"ok\":true";
  return out;
}

std::string HealthJson(const std::string& id,
                       const serving::QueryEngine& engine,
                       const serving::ReloadManager& reloads) {
  const serving::QueryEngine::Stats stats = engine.stats();
  std::string out = AdminHead(id, "health");
  out += ",\"state\":\"";
  out += serving::HealthStateName(engine.health());
  out += '"';
  const std::pair<const char*, uint64_t> counters[] = {
      {"generation", engine.generation()},
      {"accepted", stats.accepted},
      {"shed", stats.shed},
      {"deadline_shed", stats.deadline_shed},
      {"executed", stats.executed},
      {"batches", stats.batches},
      {"coalesced", stats.coalesced},
      {"reloads", stats.reloads},
      {"worker_stalls", stats.worker_stalls},
      {"failed_reloads", reloads.failed_reloads()}};
  for (const auto& [key, value] : counters) {
    out += ",\"";
    out += key;
    out += "\":";
    json::AppendNumber(out, value);
  }
  out += ",\"breaker\":\"";
  out += robustness::CircuitBreakerStateName(reloads.breaker().state());
  out += "\"}";
  return out;
}

int Serve(const ServeArgs& args, std::FILE* in) {
  const serving::SnapshotSource source = MakeSource(args);
  auto built = serving::BuildServingSnapshot(source);
  if (!built.ok()) {
    std::fprintf(stderr, "culinary_serve: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }

  obs::SloMonitor slo;
  serving::QueryEngineOptions engine_options;
  engine_options.num_threads = args.threads;
  if (args.slo) {
    for (const char* name :
         {"ping", "score", "suggest", "fingerprint", "similar"}) {
      obs::SloObjective objective;
      objective.name = name;
      objective.latency_threshold_us = static_cast<double>(args.slo_latency_us);
      slo.SetObjective(std::move(objective));
    }
    engine_options.slo = &slo;
  }

  // Worker/watchdog threads are spawned with SIGINT/SIGTERM blocked so the
  // kernel routes a process-directed signal to the main thread — the one
  // blocked in read(2), which must wake up for the drain to start.
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGINT);
  sigaddset(&drain_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);
  serving::QueryEngine engine(std::move(built).value(), engine_options);
  pthread_sigmask(SIG_UNBLOCK, &drain_signals, nullptr);
  serving::ReloadManager reloads(&engine);

  std::fprintf(stderr, "culinary_serve: ready (%zu recipes, generation %llu)\n",
               engine.snapshot()->db().num_recipes(),
               static_cast<unsigned long long>(engine.generation()));

  // getline(3) splits on '\n' only (a '\r' or a NUL stays in the line),
  // grows its buffer for a long line and returns a last line that has no
  // '\n'. A failed read ends the input as end-of-file does, so a read
  // interrupted by SIGINT/SIGTERM (EINTR) ends the loop.
  char* buffer = nullptr;
  size_t capacity = 0;
  ssize_t length = 0;
  while (g_signal == 0 &&
         (length = ::getline(&buffer, &capacity, in)) >= 0) {
    std::string_view line(buffer, static_cast<size_t>(length));
    if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
    if (line.empty()) continue;
    auto parsed = serving::ParseRequestLine(line);
    if (!parsed.ok()) {
      WriteLine(serving::SerializeError("", parsed.status()));
      continue;
    }
    serving::WireRequest& wire = parsed.value();
    if (wire.is_admin && wire.op == "shutdown") {
      WriteLine(AdminHead(wire.id, "shutdown") + "}");
      break;
    }
    if (wire.is_admin && wire.op == "health") {
      if (args.slo) {
        slo.ExportGauges(obs::MetricsRegistry::Default(), SteadyNowS());
      }
      WriteLine(HealthJson(wire.id, engine, reloads));
      continue;
    }
    if (wire.is_admin && wire.op == "reload") {
      const Status status = reloads.Reload(source);
      if (status.ok()) {
        std::string answer = AdminHead(wire.id, "reload");
        answer += ",\"generation\":";
        json::AppendNumber(answer, engine.generation());
        WriteLine(answer + "}");
      } else {
        // The engine keeps serving its last good snapshot (health
        // "degraded"); the error goes to the caller, not the process.
        WriteLine(serving::SerializeError(wire.id, status));
      }
      continue;
    }
    // Query lines are evaluated here, on the thread that read them. A batch
    // line is one unit of work: its sub-requests share one pinned snapshot,
    // and their answers come back in wire order.
    if (wire.is_batch) {
      std::vector<serving::Request> requests;
      std::vector<std::string> sub_ids;
      requests.reserve(wire.batch.size());
      sub_ids.reserve(wire.batch.size());
      for (serving::WireRequest& sub : wire.batch) {
        requests.push_back(std::move(sub.request));
        sub_ids.push_back(std::move(sub.id));
      }
      WriteLine(serving::SerializeBatchResponse(
          wire.id, sub_ids, engine.ExecuteBatch(requests)));
      continue;
    }
    WriteLine(
        serving::SerializeResponse(wire.id, engine.Execute(wire.request)));
  }
  std::free(buffer);

  if (g_signal != 0) {
    std::fprintf(stderr, "culinary_serve: signal %d; draining\n",
                 static_cast<int>(g_signal));
  }
  // Graceful drain, signal or EOF alike: the line being answered has
  // finished; close admission, then stop the idle pool.
  engine.BeginDrain();
  engine.Stop();

  if (args.slo) {
    const int64_t now_s = SteadyNowS();
    slo.ExportGauges(obs::MetricsRegistry::Default(), now_s);
    std::fprintf(stderr, "culinary_serve: slo %s\n",
                 slo.ToJson(now_s).c_str());
  }
  const serving::QueryEngine::Stats stats = engine.stats();
  std::fprintf(stderr,
               "culinary_serve: done (state=%s accepted=%llu shed=%llu "
               "deadline_shed=%llu executed=%llu batches=%llu coalesced=%llu "
               "reloads=%llu stalls=%llu)\n",
               serving::HealthStateName(engine.health()),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.deadline_shed),
               static_cast<unsigned long long>(stats.executed),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.coalesced),
               static_cast<unsigned long long>(stats.reloads),
               static_cast<unsigned long long>(stats.worker_stalls));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  bool paper = false;
  if (!flags::ParseCommandLine(
          argc, argv,
          {flags::Presence("small", &args.small,
                           "serve the miniature world (the default)"),
           flags::Presence("paper", &paper,
                           "serve the paper-scale world instead"),
           flags::String("snapshot-in", &args.snapshot_in, "FILE",
                         "load the world from this snapshot"),
           flags::Unsigned("seed", &args.seed,
                           "world seed, 0 = the spec's own"),
           flags::Unsigned("threads", &args.threads,
                           "worker threads of the engine's Submit pool, "
                           "idle here: lines are answered as they are read"),
           flags::Unsigned("null-recipes", &args.null_recipes,
                           "null recipes per cuisine baseline, 0 = no "
                           "baselines"),
           flags::Presence("slo", &args.slo,
                           "track per-endpoint SLO burn rates, exported "
                           "as slo.* gauges and summarized on stderr"),
           flags::Unsigned("slo-latency-us", &args.slo_latency_us,
                           "latency objective per endpoint under --slo, "
                           "0 = availability only"),
           flags::String("requests", &args.requests_file, "FILE",
                         "read request lines from FILE, not stdin"),
           flags::String("metrics-out", &args.metrics_out, "FILE",
                         "write the metrics as JSON on exit")})) {
    return 2;
  }
  if (paper) args.small = false;
  // --slo turns the runtime switch on too: burn-rate gauges go through the
  // gated metrics registry, and "track SLOs" without recording them would
  // be a silent no-op.
  if (!args.metrics_out.empty() || args.slo) obs::SetEnabled(true);
  InstallSignalHandlers();

  int rc = 0;
  if (!args.requests_file.empty()) {
    std::FILE* file = std::fopen(args.requests_file.c_str(), "r");
    if (file == nullptr) {
      std::fprintf(stderr, "culinary_serve: cannot open %s\n",
                   args.requests_file.c_str());
      return 1;
    }
    rc = Serve(args, file);
    std::fclose(file);
  } else {
    rc = Serve(args, stdin);
  }

  if (!args.metrics_out.empty()) {
    std::string error;
    if (!obs::WriteMetricsJsonFile(obs::MetricsRegistry::Default(),
                                   args.metrics_out, &error)) {
      std::fprintf(stderr, "culinary_serve: metrics dump failed: %s\n",
                   error.c_str());
      return 1;
    }
  }
  return rc;
}
