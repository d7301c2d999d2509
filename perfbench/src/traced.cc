// The traced run: spans around each module's public calls, timed from
// outside the modules, give the per-layer metrics. It is separate from the
// timed runs so span bookkeeping never touches an end-to-end number.

#include <algorithm>
#include <array>
#include <future>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "fig4.h"
#include "serving/engine.h"
#include "serving/protocol.h"
#include "serving/queries.h"
#include "serving/snapshot.h"
#include "server.h"
#include "snapshot/snapshot.h"
#include "traffic.h"
#include "workloads.h"

namespace perfbench {

namespace serving = culinary::serving;

namespace {

/// Lines replayed in-process per serving workload (10 of them beyond p99).
constexpr size_t kTracePointLines = 10000;
constexpr size_t kTraceBulkLines = 1000;
/// Passes with and without spans behind `trace.overhead_frac`.
constexpr int kOverheadPasses = 7;
/// Span ids: spans of one request line share its id; sections do not mix.
constexpr uint32_t kPointIds = 0;
constexpr uint32_t kBulkIds = 1000000;
constexpr uint32_t kSnapshotIds = 2000000;
constexpr uint32_t kIngestIds = 2000100;
/// After the 22 region ids of the Fig 4 spans.
constexpr uint32_t kFig4TableId = kFig4SpanIds + 1000;

struct ReplayResult {
  std::vector<double> line_us;
  std::vector<double> parse_us;
  std::vector<double> wait_us;
  std::vector<double> serialize_us;
  uint64_t bytes_out = 0;
  uint64_t answers = 0;
  uint64_t wrong = 0;
  int64_t wall_ns = 0;
  serving::QueryEngine::Stats before;
  serving::QueryEngine::Stats after;
};

/// Replays `traffic` through the exact call sequence of `culinary_serve`'s
/// serve loop: `ParseRequestLine`, `Submit` of the request (of every
/// sub-request, all before the first `get`), then `SerializeResponse` /
/// `SerializeBatchResponse`. Only the pipe is missing.
void Replay(serving::QueryEngine& engine, const Traffic& traffic,
            uint32_t id_base, SpanLog& log, ReplayResult* out) {
  out->before = engine.stats();
  const int64_t start_ns = NowNs();
  for (size_t i = 0; i < traffic.lines.size(); ++i) {
    const uint32_t id = id_base + static_cast<uint32_t>(i);
    const std::string& line = traffic.lines[i];
    const int32_t root = log.Begin("line", id);

    int32_t span = log.Begin("protocol.parse", id, root);
    auto parsed =
        serving::ParseRequestLine(std::string_view(line).substr(0, line.size() - 1));
    const int64_t parse_ns = log.End(span);
    if (!parsed.ok()) {
      ++out->wrong;
      log.End(root);
      continue;
    }
    const serving::WireRequest& wire = parsed.value();

    std::string answer;
    int64_t wait_ns = 0;
    int64_t serialize_ns = 0;
    if (wire.is_batch) {
      span = log.Begin("engine.wait", id, root);
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
      for (auto& future : futures) responses.push_back(future.get());
      wait_ns = log.End(span);
      span = log.Begin("protocol.serialize", id, root);
      answer = serving::SerializeBatchResponse(wire.id, sub_ids, responses);
      serialize_ns = log.End(span);
      out->answers += wire.batch.size();
    } else {
      span = log.Begin("engine.wait", id, root);
      serving::Response response = engine.Submit(wire.request).get();
      wait_ns = log.End(span);
      span = log.Begin("protocol.serialize", id, root);
      answer = serving::SerializeResponse(wire.id, response);
      serialize_ns = log.End(span);
      out->answers += 1;
    }
    const int64_t line_ns = log.End(root);
    if (answer != traffic.reference[i]) ++out->wrong;
    out->bytes_out += answer.size() + 1;
    if (log.enabled()) {
      out->line_us.push_back(NsToUs(line_ns));
      out->parse_us.push_back(NsToUs(parse_ns));
      out->wait_us.push_back(NsToUs(wait_ns));
      out->serialize_us.push_back(NsToUs(serialize_ns));
    }
  }
  out->wall_ns = NowNs() - start_ns;
  out->after = engine.stats();
}

/// Second pass: the queries layer alone, `EvaluateQuery` per point line and
/// `EvaluateBatch` per batch line. `line_us` is index-aligned with the
/// traffic; `per_endpoint` is indexed by `serving::Endpoint`.
void EvaluatePass(const serving::ServingSnapshot& world,
                  const Traffic& traffic, uint32_t id_base, SpanLog& log,
                  std::vector<double>* line_us,
                  std::array<std::vector<double>, 5>* per_endpoint) {
  for (size_t i = 0; i < traffic.lines.size(); ++i) {
    const uint32_t id = id_base + static_cast<uint32_t>(i);
    const std::string& line = traffic.lines[i];
    auto parsed =
        serving::ParseRequestLine(std::string_view(line).substr(0, line.size() - 1));
    if (!parsed.ok()) continue;
    const serving::WireRequest& wire = parsed.value();
    if (wire.is_batch) {
      std::vector<serving::Request> requests;
      for (const serving::WireRequest& sub : wire.batch) {
        requests.push_back(sub.request);
      }
      const int32_t span = log.Begin("queries.eval_batch", id);
      const std::vector<serving::Response> responses =
          serving::EvaluateBatch(world, requests);
      line_us->push_back(NsToUs(log.End(span)));
    } else {
      const int32_t span = log.Begin("queries.eval", id);
      const serving::Response response = serving::EvaluateQuery(
          world, wire.request, serving::MakeContext(wire.request));
      const double us = NsToUs(log.End(span));
      line_us->push_back(us);
      (*per_endpoint)[static_cast<size_t>(wire.request.endpoint)].push_back(us);
    }
  }
}

double MeanBatchSize(const ReplayResult& replay) {
  const uint64_t units = replay.after.batches - replay.before.batches;
  const uint64_t executed = replay.after.executed - replay.before.executed;
  return units == 0 ? 0.0
                    : static_cast<double>(executed) / static_cast<double>(units);
}

double P50(std::vector<double> samples) {
  return NearestRank(samples, 0.5).value;
}

}  // namespace

void RunTraced(const RunArgs& args, Outcome* out) {
  SpanLog log(true);
  Report& report = out->report;

  // --- set-up layers: snapshot load, serving-snapshot build -------------
  std::vector<double> load_ms;
  std::vector<double> build_ms;
  std::shared_ptr<const serving::ServingSnapshot> world;
  culinary::snapshot::SnapshotLoadOptions load_options;
  load_options.expected_digest = culinary::snapshot::DigestGeneratedWorld(
      EffectiveWorldSeed(args.world.world_seed), /*small_world=*/false);
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    const uint32_t id = kSnapshotIds + static_cast<uint32_t>(k);
    int32_t span = log.Begin("snapshot.load", id);
    auto loaded =
        culinary::snapshot::LoadWorldSnapshot(args.world.snapshot(), load_options);
    load_ms.push_back(NsToMs(log.End(span)));
    if (!loaded.ok()) {
      out->error = "load snapshot: " + loaded.status().ToString();
      return;
    }
    span = log.Begin("serving.snapshot_build", id);
    auto built =
        serving::ServingSnapshot::FromLoadedWorld(std::move(loaded).value());
    build_ms.push_back(NsToMs(log.End(span)));
    if (!built.ok()) {
      out->error = "build serving snapshot: " + built.status().ToString();
      return;
    }
    world = std::move(built).value();
  }

  // --- serving layers: in-process replays of both serving workloads ------
  Traffic point = MakeTraffic(*world, false, args.seed, kTracePointLines);
  Traffic bulk = MakeTraffic(*world, true, args.seed, kTraceBulkLines);
  for (Traffic* traffic : {&point, &bulk}) {
    const culinary::Status status = ComputeReference(world, traffic);
    if (!status.ok()) {
      out->error = "reference: " + status.ToString();
      return;
    }
  }
  serving::QueryEngineOptions engine_options;
  engine_options.num_threads = 2;  // as `culinary_serve --threads=2`
  ReplayResult point_replay;
  ReplayResult bulk_replay;
  double overhead_frac = 0.0;
  {
    serving::QueryEngine engine(world, engine_options);
    Replay(engine, point, kPointIds, log, &point_replay);
    Replay(engine, bulk, kBulkIds, log, &bulk_replay);

    // Span cost: the densest replay (4 spans per point line) with spans on
    // and off, best of several passes each.
    int64_t plain_ns = std::numeric_limits<int64_t>::max();
    int64_t traced_ns = std::numeric_limits<int64_t>::max();
    for (int pass = 0; pass < kOverheadPasses; ++pass) {
      SpanLog off(false);
      ReplayResult plain;
      Replay(engine, point, kPointIds, off, &plain);
      plain_ns = std::min(plain_ns, plain.wall_ns);
      SpanLog scratch(true);
      ReplayResult traced;
      Replay(engine, point, kPointIds, scratch, &traced);
      traced_ns = std::min(traced_ns, traced.wall_ns);
      out->attempted += plain.answers + traced.answers;
      out->failed += plain.wrong + traced.wrong;
    }
    overhead_frac =
        static_cast<double>(traced_ns) / static_cast<double>(plain_ns) - 1.0;
    engine.Stop();
  }
  out->attempted += point_replay.answers + bulk_replay.answers;
  out->failed += point_replay.wrong + bulk_replay.wrong;

  std::vector<double> point_eval_us;
  std::vector<double> bulk_eval_us;
  std::array<std::vector<double>, 5> endpoint_us;
  std::array<std::vector<double>, 5> unused;
  EvaluatePass(*world, point, kPointIds, log, &point_eval_us, &endpoint_us);
  EvaluatePass(*world, bulk, kBulkIds, log, &bulk_eval_us, &unused);
  world.reset();

  // --- transport: the real process on the same point traffic -------------
  std::vector<double> setup_s;
  LoopResult loop;
  {
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
        out->error = "culinary_serve exited with status " +
                     std::to_string(exit.status);
        return;
      }
    }
    const double seconds = std::clamp(args.seconds / 4.0, 1.0, 3.0);
    if (!RunClosedLoop(*server, point, 1, 0.5, seconds, &loop, &out->error)) {
      return;
    }
    ServerProcess::Exit exit;
    if (!server->Finish(&exit, &out->error)) return;
    out->attempted += loop.checked_answers;
    out->failed += loop.wrong_answers;
  }

  // --- ingest + Fig 4 layers ---------------------------------------------
  std::vector<double> registry_ms;
  std::vector<double> recipes_ms;
  CsvWorld csv;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    const uint32_t id = kIngestIds + static_cast<uint32_t>(k);
    const int32_t span = log.Begin("ingest.csv", id);
    auto loaded = LoadCsvWorld(args.world);
    log.End(span);
    if (!loaded.ok()) {
      out->error = "csv ingest: " + loaded.status().ToString();
      return;
    }
    csv = std::move(loaded).value();
    registry_ms.push_back(NsToMs(csv.registry_ns));
    recipes_ms.push_back(NsToMs(csv.recipes_ns));
  }
  const uint64_t null_seed = Fig4NullSeed(args.seed);
  std::vector<culinary::analysis::FoodPairingResult> reference;
  std::vector<culinary::analysis::FoodPairingResult> table;
  culinary::Status status = ComputeFig4Table(
      *csv.registry, *csv.database, null_seed, 1, &reference, nullptr,
      nullptr, nullptr);
  if (!status.ok()) {
    out->error = "reference table: " + status.ToString();
    return;
  }
  Fig4Breakdown breakdown;
  const int32_t table_span = log.Begin("fig4.table", kFig4TableId);
  status = ComputeFig4Table(*csv.registry, *csv.database, null_seed,
                            kFig4Threads, &table, nullptr, &log, &breakdown);
  const int64_t table_ns = log.End(table_span);
  if (!status.ok()) {
    out->error = "table: " + status.ToString();
    return;
  }
  for (size_t c = 0; c < table.size(); ++c) {
    ++out->attempted;
    if (c >= reference.size() || !SameCell(table[c], reference[c])) {
      ++out->failed;
    }
  }

  // --- per-layer metrics ---------------------------------------------------
  report.Add("protocol.parse_us_p50", P50(point_replay.parse_us), "us");
  report.Add("protocol.serialize_us_p50", P50(bulk_replay.serialize_us), "us");
  report.Add("protocol.bytes_out_per_line",
             static_cast<double>(bulk_replay.bytes_out) /
                 static_cast<double>(bulk.lines.size()),
             "bytes");
  report.AddQuantile("engine.wait_us_p50", point_replay.wait_us, 0.5, "us");
  report.AddQuantile("engine.wait_us_p99", point_replay.wait_us, 0.99, "us");
  std::vector<double> overhead_us;
  for (size_t i = 0; i < point_replay.wait_us.size(); ++i) {
    overhead_us.push_back(point_replay.wait_us[i] - point_eval_us[i]);
  }
  report.Add("engine.overhead_us_p50", P50(overhead_us), "us");
  report.Add("engine.mean_batch_size", MeanBatchSize(bulk_replay), "count");
  report.Add("engine.mean_batch_size_point", MeanBatchSize(point_replay),
             "count");
  report.Add("engine.shed",
             static_cast<double>(bulk_replay.after.shed -
                                 bulk_replay.before.shed +
                                 point_replay.after.shed -
                                 point_replay.before.shed),
             "count");
  for (size_t e = 0; e < endpoint_us.size(); ++e) {
    report.Add(std::string("queries.eval_us_p50.") +
                   serving::EndpointName(static_cast<serving::Endpoint>(e)),
               P50(endpoint_us[e]), "us");
  }
  report.Add("queries.eval_batch_us_p50", P50(bulk_eval_us), "us");
  const double client_p50 = P50(loop.latency_us);
  const double span_p50 = P50(point_replay.line_us);
  report.Add("transport.overhead_us_p50", client_p50 - span_p50, "us");
  const double load_p50 = Median(load_ms);
  const double build_p50 = Median(build_ms);
  report.Add("snapshot.load_ms", load_p50, "ms");
  report.Add("serving.snapshot_build_ms", build_p50, "ms");
  report.Add("ingest.registry_csv_ms", Median(registry_ms), "ms");
  report.Add("ingest.recipes_csv_ms", Median(recipes_ms), "ms");
  report.Add("recipe.cuisine_for_ms", NsToMs(breakdown.cuisine_for_ns), "ms");
  report.Add("analysis.cache_build_ms", NsToMs(breakdown.cache_build_ns), "ms");
  report.Add("analysis.cache_pairs", static_cast<double>(breakdown.cache_pairs),
             "count");
  static constexpr const char* kSweepMetrics[4] = {
      "analysis.null_sweep_ms.random", "analysis.null_sweep_ms.frequency",
      "analysis.null_sweep_ms.category", "analysis.null_sweep_ms.freqcat"};
  int64_t null_ns = 0;
  for (size_t kind = 0; kind < 4; ++kind) {
    report.Add(kSweepMetrics[kind], NsToMs(breakdown.null_ns[kind]), "ms");
    null_ns += breakdown.null_ns[kind];
  }
  report.Add("analysis.null_samples_per_s",
             static_cast<double>(kFig4Cells * kNullRecipes) / NsToS(null_ns),
             "1/s");
  report.Add("trace.overhead_frac", overhead_frac, "frac");

  // --- accounting: do the layers add up to the end-to-end numbers? --------
  const double setup_ms = Median(setup_s) * 1e3;
  Report::Note("accounting serve set-up: snapshot.load_ms + "
               "serving.snapshot_build_ms = " +
               JsonNumber(load_p50 + build_p50) + " ms of setup_s " +
               JsonNumber(setup_ms) + " ms (share " +
               JsonNumber((load_p50 + build_p50) / setup_ms) + ")");
  const int64_t layers_ns =
      breakdown.cuisine_for_ns + breakdown.cache_build_ns + null_ns;
  Report::Note("accounting fig4: recipe.* + analysis.* = " +
               JsonNumber(NsToMs(layers_ns)) + " ms of one table " +
               JsonNumber(NsToMs(table_ns)) + " ms (share " +
               JsonNumber(static_cast<double>(layers_ns) /
                          static_cast<double>(table_ns)) +
               ")");
  Report::Note("accounting serve_point: client p50 " + JsonNumber(client_p50) +
               " us, in-process line span p50 " + JsonNumber(span_p50) +
               " us");

  if (!args.trace_out.empty() && !log.WriteJsonLines(args.trace_out)) {
    out->error = "cannot write spans to " + args.trace_out;
  }
}

}  // namespace perfbench
