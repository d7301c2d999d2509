// culinary_serve — resident pairing-query server over line-delimited JSON.
//
// Loads the world ONCE into an immutable serving snapshot, then answers
// point queries from stdin (or --requests=FILE), one JSON object per line,
// one response line per request (see src/serving/protocol.h for the wire
// format):
//
//   culinary_serve --small
//   culinary_serve --snapshot-in=world.snap --threads=8
//   loadgen --small --count=1000 | culinary_serve --small
//
// World source (exactly one):
//   --small            miniature synthetic world (default)
//   --paper            calibrated paper-scale world (45k recipes)
//   --snapshot-in=FILE rehydrate from a binary world snapshot. The load is
//                      hardened: corruption or a stale digest quarantines
//                      the file and rebuilds from source (kBestEffort), so
//                      a damaged snapshot degrades startup, never kills it
//
// Engine:
//   --seed=N           reseed the synthetic world (0 = spec default)
//   --threads=N        worker threads draining the admission queue (4)
//   --queue-cap=N      admission-queue bound; overflow is shed with
//                      Unavailable rather than queued without limit (256).
//                      A worker drains up to 16 same-endpoint waiting
//                      requests into one shared-snapshot sweep
//   --null-recipes=N   precompute per-cuisine null-model baselines with N
//                      randomized recipes each (0 = skip; fast startup)
//
// Self-healing:
//   --reload-retries=N      retry attempts per reload (3)
//   --breaker-threshold=N   consecutive reload failures that trip the
//                           circuit breaker open (3)
//   --breaker-cooldown-ms=N breaker cooldown before a half-open probe (1000)
//   --slo                   track per-endpoint SLO burn rates; exported as
//                           slo.* gauges in --metrics-out and summarized on
//                           stderr at exit
//   --slo-latency-us=N      latency objective per endpoint for --slo
//                           (0 = availability-only)
//
// Transport:
//   --requests=FILE    read request lines from FILE instead of stdin
//   --metrics-out=FILE dump the metrics registry as JSON on exit (switches
//                      observability on for the run)
//   --self-signal-ms=N raise SIGTERM at itself after N ms (drain smoke-test
//                      hook)
//
// Admin ops on the wire: {"op":"reload"} rebuilds the world from the same
// source through the hardened reload path (retry + circuit breaker; a
// failed reload leaves the engine serving its last good snapshot in
// "degraded") and RCU-swaps it in; {"op":"health"} reports the health
// state, generation and counters; {"op":"shutdown"} drains and exits 0.
//
// SIGINT/SIGTERM likewise drain gracefully: admission closes (kDraining),
// in-flight requests finish, metrics are flushed, exit status 0.

#include <pthread.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/cancellation.h"
#include "common/json.h"
#include "datagen/world.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "robustness/circuit_breaker.h"
#include "robustness/retry.h"
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
/// while the serve loop is blocked in getline makes the read fail with
/// EINTR instead of restarting, so the loop exits and the drain runs.
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
  size_t queue_cap = 256;
  size_t null_recipes = 0;
  int reload_retries = 3;
  int breaker_threshold = 3;
  double breaker_cooldown_ms = 1000.0;
  bool slo = false;
  double slo_latency_us = 0.0;
  std::string requests_file;
  std::string metrics_out;
  uint64_t self_signal_ms = 0;
  bool usage_error = false;
};

bool ParseUint64Value(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const uint64_t parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

/// Like ParseUint64Value, for a flag stored as int: a value past INT_MAX is
/// an error rather than a wrapped cast.
bool ParseIntValue(const std::string& text, int* out) {
  uint64_t parsed = 0;
  if (!ParseUint64Value(text, &parsed) ||
      parsed > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

ServeArgs ParseArgs(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    uint64_t number = 0;
    if (key == "--small") {
      args.small = true;
    } else if (key == "--paper") {
      args.small = false;
    } else if (key == "--snapshot-in") {
      args.snapshot_in = value;
    } else if (key == "--requests") {
      args.requests_file = value;
    } else if (key == "--metrics-out") {
      args.metrics_out = value;
    } else if (key == "--slo") {
      args.slo = true;
    } else if (key == "--seed") {
      if (!ParseUint64Value(value, &args.seed)) args.usage_error = true;
    } else if (key == "--threads") {
      if (!ParseUint64Value(value, &number)) args.usage_error = true;
      args.threads = static_cast<size_t>(number);
    } else if (key == "--queue-cap") {
      if (!ParseUint64Value(value, &number)) args.usage_error = true;
      args.queue_cap = static_cast<size_t>(number);
    } else if (key == "--null-recipes") {
      if (!ParseUint64Value(value, &number)) args.usage_error = true;
      args.null_recipes = static_cast<size_t>(number);
    } else if (key == "--reload-retries") {
      if (!ParseIntValue(value, &args.reload_retries)) args.usage_error = true;
    } else if (key == "--breaker-threshold") {
      if (!ParseIntValue(value, &args.breaker_threshold)) {
        args.usage_error = true;
      }
    } else if (key == "--breaker-cooldown-ms") {
      if (!ParseUint64Value(value, &number)) args.usage_error = true;
      args.breaker_cooldown_ms = static_cast<double>(number);
    } else if (key == "--slo-latency-us") {
      if (!ParseUint64Value(value, &number)) args.usage_error = true;
      args.slo_latency_us = static_cast<double>(number);
    } else if (key == "--self-signal-ms") {
      if (!ParseUint64Value(value, &args.self_signal_ms)) {
        args.usage_error = true;
      }
    } else {
      std::fprintf(stderr, "culinary_serve: unknown flag %s\n", arg.c_str());
      args.usage_error = true;
    }
  }
  return args;
}

/// The world source the flags selected, as a reusable SnapshotSource: the
/// initial load and every hardened reload run the exact same recipe, so a
/// reload can never observe a world the startup path could not have built.
serving::SnapshotSource MakeSource(const ServeArgs& args) {
  serving::SnapshotSource source;
  source.snapshot_options.null_recipes = args.null_recipes;
  datagen::WorldSpec spec =
      args.small ? datagen::WorldSpec::Small() : datagen::WorldSpec::Default();
  if (args.seed != 0) spec.seed = args.seed;
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

int Serve(const ServeArgs& args, std::istream& in) {
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
  engine_options.queue_capacity = args.queue_cap;
  if (args.slo) {
    for (const char* name :
         {"ping", "score", "suggest", "fingerprint", "similar"}) {
      obs::SloObjective objective;
      objective.name = name;
      objective.latency_threshold_us = args.slo_latency_us;
      slo.SetObjective(std::move(objective));
    }
    engine_options.slo = &slo;
  }

  // Worker/watchdog threads are spawned with SIGINT/SIGTERM blocked so the
  // kernel routes a process-directed signal to the main thread — the one
  // blocked in getline, which must wake up for the drain to start.
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGINT);
  sigaddset(&drain_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);
  serving::QueryEngine engine(std::move(built).value(), engine_options);

  std::thread self_signal;
  if (args.self_signal_ms > 0) {
    const pthread_t main_thread = pthread_self();
    const uint64_t delay_ms = args.self_signal_ms;
    self_signal = std::thread([main_thread, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      pthread_kill(main_thread, SIGTERM);
    });
  }
  pthread_sigmask(SIG_UNBLOCK, &drain_signals, nullptr);

  serving::ReloadManager::Options reload_options;
  reload_options.retry.max_attempts =
      args.reload_retries < 1 ? 1 : args.reload_retries;
  reload_options.breaker.failure_threshold = args.breaker_threshold;
  reload_options.breaker.open_cooldown_ms = args.breaker_cooldown_ms;
  serving::ReloadManager reloads(&engine, std::move(reload_options));

  std::fprintf(stderr, "culinary_serve: ready (%zu recipes, generation %llu)\n",
               engine.snapshot()->db().num_recipes(),
               static_cast<unsigned long long>(engine.generation()));

  std::string line;
  while (g_signal == 0 && std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = serving::ParseRequestLine(line);
    if (!parsed.ok()) {
      std::cout << serving::SerializeError("", parsed.status()) << '\n'
                << std::flush;
      continue;
    }
    const serving::WireRequest& wire = parsed.value();
    if (wire.is_admin && wire.op == "shutdown") {
      std::cout << AdminHead(wire.id, "shutdown") << "}\n" << std::flush;
      break;
    }
    if (wire.is_admin && wire.op == "health") {
      if (args.slo) {
        slo.ExportGauges(obs::MetricsRegistry::Default(), SteadyNowS());
      }
      std::cout << HealthJson(wire.id, engine, reloads) << '\n' << std::flush;
      continue;
    }
    if (wire.is_admin && wire.op == "reload") {
      const Status status = reloads.Reload(source);
      if (status.ok()) {
        std::string answer = AdminHead(wire.id, "reload");
        answer += ",\"generation\":";
        json::AppendNumber(answer, engine.generation());
        std::cout << answer << "}\n" << std::flush;
      } else {
        // The engine keeps serving its last good snapshot (health
        // "degraded"); the error goes to the caller, not the process.
        std::cout << serving::SerializeError(wire.id, status) << '\n'
                  << std::flush;
      }
      continue;
    }
    if (wire.is_batch) {
      // Submit every sub-request before collecting any answer: they land on
      // the admission queue back-to-back, so a coalescing worker sweeps
      // them against one pinned snapshot. Responses come back in wire
      // order regardless of evaluation order.
      std::vector<std::future<serving::Response>> futures;
      std::vector<std::string> sub_ids;
      futures.reserve(wire.batch.size());
      sub_ids.reserve(wire.batch.size());
      for (const serving::WireRequest& sub : wire.batch) {
        futures.push_back(engine.Submit(sub.request));
        sub_ids.push_back(sub.id);
      }
      std::vector<serving::Response> responses;
      responses.reserve(futures.size());
      for (std::future<serving::Response>& future : futures) {
        responses.push_back(future.get());
      }
      std::cout << serving::SerializeBatchResponse(wire.id, sub_ids, responses)
                << '\n'
                << std::flush;
      continue;
    }
    std::future<serving::Response> future = engine.Submit(wire.request);
    std::cout << serving::SerializeResponse(wire.id, future.get()) << '\n'
              << std::flush;
  }

  if (g_signal != 0) {
    std::fprintf(stderr, "culinary_serve: signal %d; draining\n",
                 static_cast<int>(g_signal));
  }
  // Graceful drain, signal or EOF alike: close admission first so queued
  // work finishes under kDraining, then stop (workers drain the queue
  // before joining — their futures all resolve).
  engine.BeginDrain();
  engine.Stop();
  if (self_signal.joinable()) self_signal.join();

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
  const ServeArgs args = ParseArgs(argc, argv);
  if (args.usage_error) return 2;
  // --slo turns the runtime switch on too: burn-rate gauges go through the
  // gated metrics registry, and "track SLOs" without recording them would
  // be a silent no-op.
  if (!args.metrics_out.empty() || args.slo) obs::SetEnabled(true);
  InstallSignalHandlers();

  int rc = 0;
  if (!args.requests_file.empty()) {
    std::ifstream file(args.requests_file);
    if (!file) {
      std::fprintf(stderr, "culinary_serve: cannot open %s\n",
                   args.requests_file.c_str());
      return 1;
    }
    rc = Serve(args, file);
  } else {
    rc = Serve(args, std::cin);
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
