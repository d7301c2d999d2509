#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "fig4.h"
#include "server.h"
#include "traffic.h"

namespace perfbench {

namespace {

/// Distinct lines the serving client cycles through.
constexpr size_t kPointPool = 20000;
constexpr size_t kBulkPool = 2000;
/// Lines outstanding: one for serve_point; serve_bulk keeps the next line
/// queued in the pipe so the server never waits on the client.
constexpr size_t kPointWindow = 1;
constexpr size_t kBulkWindow = 2;
/// Checked but unmeasured lead-in of every serving run.
constexpr double kWarmupS = 1.0;
/// Every timed metric is taken over the faster half of a run's windows:
/// lines in consecutive windows of kWindowLines (serving), whole tables
/// (Fig 4). On a shared VM, neighbours and the hypervisor slow random
/// stretches of a run by tens of percent; dropping the slower half keeps
/// such a stretch from moving the run's numbers, while a slower program is
/// slower in every window.
constexpr size_t kWindowLines = 2000;
/// Answers per `solve_s` block of the serving workloads.
constexpr uint64_t kBlockAnswers = 1024;
/// Fig 4 tables per run at least, whatever `--seconds` says: the faster 12
/// of 23 give 1,056 per-cell samples, 10 of them beyond the p99.
constexpr size_t kMinFig4Tables = 23;

/// One window of a run: how long it took and the latencies inside it.
struct Window {
  double seconds = 0.0;
  std::vector<double> latency_us;
};

/// The faster half of a run's windows (rounded up), fastest first.
std::vector<Window> FasterHalf(std::vector<Window> windows) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.seconds < b.seconds;
                   });
  windows.resize((windows.size() + 1) / 2);
  return windows;
}

double TotalSeconds(const std::vector<Window>& windows) {
  double seconds = 0.0;
  for (const Window& w : windows) seconds += w.seconds;
  return seconds;
}

std::vector<double> AllLatencies(const std::vector<Window>& windows) {
  std::vector<double> all;
  for (const Window& w : windows) {
    all.insert(all.end(), w.latency_us.begin(), w.latency_us.end());
  }
  return all;
}

std::string ExitError(const ServerProcess::Exit& exit) {
  std::string text = "culinary_serve exited with status ";
  text += std::to_string(exit.status);
  text += ": ";
  text += exit.stderr_text;
  return text;
}

/// The latency metrics of a run, from the samples of its kept windows: p50
/// and p90. The p99 is printed with its evidence but not reported: on a
/// shared VM more than 1% of requests can wait out a scheduler time slice
/// whenever the host is oversubscribed, so the p99 measures the neighbours:
/// over runs of the same code its interquartile range can exceed its
/// median, while the p90 moves with the p50.
void AddLatencies(std::vector<double>& samples, Report* report) {
  report->AddQuantile("latency_p50_us", samples, 0.5, "us");
  report->AddQuantile("latency_p90_us", samples, 0.9, "us");
  Report::NoteQuantile("latency_p99_us", samples, 0.99, "us");
}

double PeakRssSelfMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

void RunServeWorkload(const RunArgs& args, bool bulk, Outcome* out) {
  // Untimed prep: traffic and its reference answers from the same snapshot
  // file the server loads.
  Traffic traffic;
  {
    auto world = LoadServingWorld(args.world);
    if (!world.ok()) {
      out->error = "load snapshot: " + world.status().ToString();
      return;
    }
    traffic = MakeTraffic(*world.value(), bulk, args.seed,
                          bulk ? kBulkPool : kPointPool);
    const culinary::Status status = ComputeReference(world.value(), &traffic);
    if (!status.ok()) {
      out->error = "reference: " + status.ToString();
      return;
    }
  }

  // Set-up: spawn -> ready, several times; the last server is measured.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    server = std::make_unique<ServerProcess>();
    if (!server->Start(ServeArgv(args.serve_binary, args.world),
                       &out->error)) {
      return;
    }
    setup_s.push_back(server->ready_s());
    if (k + 1 == kSetupRepeats) break;
    ServerProcess::Exit exit;
    if (!server->Finish(&exit, &out->error)) return;
    if (exit.status != 0) {
      out->error = ExitError(exit);
      return;
    }
  }

  LoopResult loop;
  const CpuTicks ticks_before = ReadCpuTicks();
  if (!RunClosedLoop(*server, traffic, bulk ? kBulkWindow : kPointWindow,
                     kWarmupS, args.seconds, &loop, &out->error)) {
    return;
  }
  Report::Note("steal_frac " +
               JsonNumber(StealFrac(ticks_before, ReadCpuTicks())));
  ServerProcess::Exit exit;
  if (!server->Finish(&exit, &out->error)) return;
  if (exit.status != 0) {
    out->error = ExitError(exit);
    return;
  }
  Report::Note("server " + exit.stderr_text.substr(
                               0, exit.stderr_text.find_last_not_of('\n') + 1));

  std::vector<Window> windows;
  int64_t window_start_ns = loop.start_ns;
  for (size_t begin = 0; begin + kWindowLines <= loop.done_ns.size();
       begin += kWindowLines) {
    const size_t end = begin + kWindowLines;
    windows.push_back(Window{
        NsToS(loop.done_ns[end - 1] - window_start_ns),
        std::vector<double>(loop.latency_us.begin() + static_cast<long>(begin),
                            loop.latency_us.begin() + static_cast<long>(end))});
    window_start_ns = loop.done_ns[end - 1];
  }
  const size_t total_windows = windows.size();
  std::vector<Window> quiet = FasterHalf(std::move(windows));
  if (quiet.empty()) {
    out->error = "run too short for one window of " +
                 std::to_string(kWindowLines) + " lines";
    return;
  }
  const double quiet_s = TotalSeconds(quiet);
  const double answers = static_cast<double>(quiet.size() * kWindowLines *
                                             traffic.answers_per_line);
  Report::Note("quiet windows: " + std::to_string(quiet.size()) + " of " +
               std::to_string(total_windows) + " windows of " +
               std::to_string(kWindowLines) + " lines; all " +
               std::to_string(loop.done_ns.size()) + " lines: " +
               JsonNumber(static_cast<double>(loop.done_ns.size()) *
                          static_cast<double>(traffic.answers_per_line) /
                          NsToS(loop.done_ns.back() - loop.start_ns)) +
               " answers/s");
  std::vector<double> quiet_latency = AllLatencies(quiet);

  Report& report = out->report;
  std::string setup_text = "setup_s samples:";
  for (double s : setup_s) {
    setup_text += ' ';
    setup_text += JsonNumber(s);
  }
  Report::Note(setup_text);
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("throughput_rps", answers / quiet_s, "1/s");
  AddLatencies(quiet_latency, &report);
  out->attempted = loop.checked_answers;
  out->failed = loop.wrong_answers;
  report.Add("ok_frac",
             static_cast<double>(loop.checked_answers - loop.wrong_answers) /
                 static_cast<double>(loop.checked_answers),
             "frac");
  report.Add("peak_rss_mb", exit.peak_rss_mb, "MB");
  report.Add("solve_s",
             quiet_s * static_cast<double>(kBlockAnswers) / answers, "s");
}

void RunFig4Workload(const RunArgs& args, Outcome* out) {
  // Set-up: CSV ingest until the database is ready, several times.
  std::vector<double> setup_s;
  CsvWorld world;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    auto loaded = LoadCsvWorld(args.world);
    if (!loaded.ok()) {
      out->error = "csv ingest: " + loaded.status().ToString();
      return;
    }
    world = std::move(loaded).value();
    setup_s.push_back(NsToS(world.registry_ns + world.recipes_ns));
  }

  // Untimed reference table, computed serially from the same seed: the
  // sweeps are bit-identical across thread counts.
  const uint64_t null_seed = Fig4NullSeed(args.seed);
  std::vector<culinary::analysis::FoodPairingResult> reference;
  culinary::Status status =
      ComputeFig4Table(*world.registry, *world.database, null_seed, 1,
                       &reference, nullptr, nullptr, nullptr);
  if (!status.ok()) {
    out->error = "reference table: " + status.ToString();
    return;
  }

  std::vector<Window> tables;
  std::vector<culinary::analysis::FoodPairingResult> table;
  const CpuTicks ticks_before = ReadCpuTicks();
  const int64_t until_ns =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  while (tables.size() < kMinFig4Tables || NowNs() < until_ns) {
    Window window;
    const int64_t t0 = NowNs();
    status = ComputeFig4Table(*world.registry, *world.database, null_seed,
                              kFig4Threads, &table, &window.latency_us,
                              nullptr, nullptr);
    window.seconds = NsToS(NowNs() - t0);
    if (!status.ok()) {
      out->error = "table: " + status.ToString();
      return;
    }
    tables.push_back(std::move(window));
    for (size_t c = 0; c < table.size(); ++c) {
      ++out->attempted;
      if (c >= reference.size() || !SameCell(table[c], reference[c])) {
        ++out->failed;
      }
    }
  }
  Report::Note("steal_frac " +
               JsonNumber(StealFrac(ticks_before, ReadCpuTicks())));
  std::vector<double> all_s;
  for (const Window& t : tables) all_s.push_back(t.seconds);
  const std::vector<Window> quiet = FasterHalf(std::move(tables));
  const double quiet_s = TotalSeconds(quiet);
  std::vector<double> quiet_latency = AllLatencies(quiet);
  Report::Note("quiet tables: " + std::to_string(quiet.size()) + " of " +
               std::to_string(all_s.size()) + "; median of all tables " +
               JsonNumber(Median(all_s)) + " s");

  Report& report = out->report;
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("throughput_rps",
             static_cast<double>(quiet_latency.size()) / quiet_s, "1/s");
  AddLatencies(quiet_latency, &report);
  report.Add("ok_frac",
             static_cast<double>(out->attempted - out->failed) /
                 static_cast<double>(out->attempted),
             "frac");
  report.Add("peak_rss_mb", PeakRssSelfMb(), "MB");
  report.Add("solve_s", quiet_s / static_cast<double>(quiet.size()), "s");
}

}  // namespace perfbench
