// loadgen — deterministic request-stream synthesizer for culinary_serve.
//
// Rebuilds the same synthetic world the server loads (same datagen spec,
// same seed) and samples realistic traffic from it: ingredient sets drawn
// from actual recipes, region codes from the world's cuisines. The stream
// is a pure function of (world seed, traffic seed, count, mix), so a bench
// run is reproducible line for line:
//
//   loadgen --small --count=1000 > requests.jsonl
//   loadgen --small --count=1000 --shutdown | culinary_serve --small
//
// Batching wraps consecutive queries into {"op":"batch","requests":[...]}
// envelopes. Sub-requests keep their r<i> ids and the sampled stream is
// unchanged: only the framing moves, so a batched run answers the same
// queries as an unbatched one. A trailing partial batch is flushed;
// interleaved admin and garbage lines stay unbatched (admin is rejected
// inside a batch).
//
// The chaos modes interleave reload, health and malformed lines every N
// queries, and a deadline on every query gives the server's deadline-aware
// admission something to shed against. All of them are deterministic.
//
// Mix: 40% score, 30% suggest, 15% fingerprint, 10% similar, 5% ping.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "datagen/world.h"
#include "recipe/region.h"
#include "serving/protocol.h"

namespace {

using namespace culinary;  // NOLINT(build/namespaces)

struct LoadgenArgs {
  bool small = true;
  uint64_t seed = 0;
  uint64_t traffic_seed = 1;
  size_t count = 100;
  size_t k = 5;
  size_t batch = 0;
  uint64_t deadline_ms = 0;
  size_t reload_every = 0;
  size_t health_every = 0;
  size_t garbage_every = 0;
  std::string out;
  bool shutdown = false;
};

/// One deterministic request line for index `i`.
std::string MakeRequest(const datagen::SyntheticWorld& world, Rng& rng,
                        size_t i, size_t k, uint64_t deadline_ms) {
  const std::vector<recipe::Recipe>& recipes = world.db().recipes();
  const uint64_t dice = rng.NextBounded(100);
  std::string line = "{\"id\":\"r" + std::to_string(i) + "\",\"op\":\"";
  if (dice < 40 || dice < 70) {
    // score (40) and suggest (30) share the ingredient-set sampling: take a
    // real recipe's ingredients by canonical name.
    const recipe::Recipe& recipe =
        recipes[rng.NextBounded(recipes.size())];
    line += dice < 40 ? "score" : "suggest";
    line += "\",\"ingredients\":[";
    for (size_t j = 0; j < recipe.ingredients.size(); ++j) {
      if (j > 0) line += ',';
      const flavor::Ingredient* ing =
          world.registry().Find(recipe.ingredients[j]);
      line += '"';
      line += serving::EscapeJson(ing != nullptr ? ing->name : "unknown");
      line += '"';
    }
    line += "]";
    if (dice >= 40) line += ",\"k\":" + std::to_string(k);
  } else if (dice < 85) {
    const recipe::Region region =
        recipe::AllRegions()[rng.NextBounded(recipe::kNumRegions)];
    line += "fingerprint\",\"region\":\"";
    line += recipe::RegionCode(region);
    line += "\",\"k\":" + std::to_string(k);
  } else if (dice < 95) {
    const recipe::Region region =
        recipe::AllRegions()[rng.NextBounded(recipe::kNumRegions)];
    line += "similar\",\"region\":\"";
    line += recipe::RegionCode(region);
    line += "\",\"k\":" + std::to_string(k);
  } else {
    line += "ping\"";
  }
  if (deadline_ms > 0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  line += '}';
  return line;
}

int Run(const LoadgenArgs& args, std::ostream& out) {
  auto world =
      datagen::GenerateWorld(datagen::WorldSpec::For(args.small, args.seed));
  if (!world.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  if (world.value().db().recipes().empty()) {
    std::fprintf(stderr, "loadgen: generated world has no recipes\n");
    return 1;
  }
  Rng rng(args.traffic_seed);
  // --batch buffering: queries accumulate here and flush as one
  // {"op":"batch"} envelope every `args.batch` queries (and at stream end).
  std::vector<std::string> pending;
  size_t batch_index = 0;
  const auto flush_pending = [&] {
    if (pending.empty()) return;
    out << "{\"id\":\"b" << batch_index++ << "\",\"op\":\"batch\",\"requests\":[";
    for (size_t j = 0; j < pending.size(); ++j) {
      if (j > 0) out << ',';
      out << pending[j];
    }
    out << "]}\n";
    pending.clear();
  };
  for (size_t i = 0; i < args.count; ++i) {
    // Interleaved admin/garbage lines ride on the query index, not the RNG,
    // so turning a mode on or off never shifts the sampled query stream.
    // Under --batch, buffered queries flush first so every query still
    // precedes the same admin line it preceded in the unbatched stream —
    // a reload answers queries from the same snapshot generation either way.
    if (args.reload_every > 0 && i > 0 && i % args.reload_every == 0) {
      flush_pending();
      out << "{\"id\":\"reload" << i << "\",\"op\":\"reload\"}\n";
    }
    if (args.health_every > 0 && i > 0 && i % args.health_every == 0) {
      flush_pending();
      out << "{\"id\":\"health" << i << "\",\"op\":\"health\"}\n";
    }
    if (args.garbage_every > 0 && i > 0 && i % args.garbage_every == 0) {
      flush_pending();
      out << "this is not json #" << i << "\n";
    }
    const std::string request =
        MakeRequest(world.value(), rng, i, args.k, args.deadline_ms);
    if (args.batch > 1) {
      pending.push_back(request);
      if (pending.size() >= args.batch) flush_pending();
    } else {
      out << request << '\n';
    }
  }
  flush_pending();
  if (args.shutdown) {
    out << "{\"id\":\"last\",\"op\":\"shutdown\"}\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenArgs args;
  bool paper = false;
  if (!flags::ParseCommandLine(
          argc, argv,
          {flags::Presence("small", &args.small,
                           "draw from the miniature world (the default)"),
           flags::Presence("paper", &paper,
                           "draw from the paper-scale world instead; the "
                           "server must load the same world"),
           flags::Unsigned("seed", &args.seed,
                           "world seed, 0 = the spec's own"),
           flags::Unsigned("traffic-seed", &args.traffic_seed,
                           "seed of the request stream"),
           flags::Unsigned("count", &args.count, "request lines"),
           flags::Unsigned("k", &args.k, "suggestion and neighbour budget"),
           flags::Unsigned("batch", &args.batch,
                           "queries per batch line, 0 or 1 = unbatched", 0,
                           serving::kMaxWireBatch),
           flags::Unsigned("deadline-ms", &args.deadline_ms,
                           "deadline_ms on every query, 0 = none"),
           flags::Unsigned("reload-every", &args.reload_every,
                           "a reload line every N queries, 0 = none"),
           flags::Unsigned("health-every", &args.health_every,
                           "a health line every N queries, 0 = none"),
           flags::Unsigned("garbage-every", &args.garbage_every,
                           "a malformed line every N queries, 0 = none"),
           flags::String("out", &args.out, "FILE",
                         "write the stream here instead of stdout"),
           flags::Presence("shutdown", &args.shutdown,
                           "end with a shutdown line, so a piped server "
                           "exits")})) {
    return 2;
  }
  if (paper) args.small = false;
  if (!args.out.empty()) {
    std::ofstream file(args.out);
    if (!file) {
      std::fprintf(stderr, "loadgen: cannot open %s\n", args.out.c_str());
      return 1;
    }
    return Run(args, file);
  }
  return Run(args, std::cout);
}
