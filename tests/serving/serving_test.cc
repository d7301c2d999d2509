// Unit tests for the serving layer: wire protocol parsing/serialization,
// serving-snapshot validation of rehydrated pairing caches, and the query
// engine's lifecycle (reload, shed, stop) and per-request budgets.

#include <future>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "datagen/world.h"
#include "flavor/registry.h"
#include "recipe/database.h"
#include "serving/engine.h"
#include "serving/protocol.h"
#include "serving/queries.h"
#include "serving/snapshot.h"

namespace culinary::serving {
namespace {

using flavor::Category;
using flavor::FlavorProfile;
using flavor::FlavorRegistry;
using flavor::IngredientId;
using recipe::RecipeDatabase;
using recipe::Region;

/// One miniature world snapshot, built once and shared by every test in
/// this binary (ServingSnapshot is immutable, so sharing is safe).
std::shared_ptr<const ServingSnapshot> SmallSnapshot() {
  static const std::shared_ptr<const ServingSnapshot> snapshot = [] {
    datagen::WorldSpec spec = datagen::WorldSpec::Small();
    auto world = datagen::GenerateWorld(spec);
    EXPECT_TRUE(world.ok()) << world.status().ToString();
    auto built =
        ServingSnapshot::FromSyntheticWorld(std::move(world).value(), {});
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return std::move(built).value();
  }();
  return snapshot;
}

/// Canonical name of the world cache's dense index `i`, for building
/// requests that resolve.
std::string IngredientName(const ServingSnapshot& snapshot, size_t i) {
  const flavor::Ingredient* ing =
      snapshot.registry().Find(snapshot.world_cache().IdAt(i));
  EXPECT_NE(ing, nullptr);
  return ing != nullptr ? ing->name : "";
}

// --- protocol ---------------------------------------------------------------

TEST(ProtocolTest, ParsesScoreRequest) {
  auto parsed = ParseRequestLine(
      R"({"id":"r1","op":"score","ingredients":["beef","onion"]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->op, "score");
  EXPECT_FALSE(parsed->is_admin);
  EXPECT_EQ(parsed->request.endpoint, Endpoint::kScore);
  ASSERT_EQ(parsed->request.ingredient_names.size(), 2u);
  EXPECT_EQ(parsed->request.ingredient_names[0], "beef");
  EXPECT_EQ(parsed->request.ingredient_names[1], "onion");
}

TEST(ProtocolTest, ParsesSuggestWithIdsKAndDeadline) {
  auto parsed = ParseRequestLine(
      R"({"id":"r2","op":"suggest","ids":[3,17],"k":5,"deadline_ms":50})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->request.endpoint, Endpoint::kSuggest);
  ASSERT_EQ(parsed->request.ingredient_ids.size(), 2u);
  EXPECT_EQ(parsed->request.ingredient_ids[0], 3);
  EXPECT_EQ(parsed->request.ingredient_ids[1], 17);
  EXPECT_EQ(parsed->request.k, 5u);
  EXPECT_EQ(parsed->request.deadline_ms, 50.0);
}

TEST(ProtocolTest, ParsesRegionOps) {
  auto fingerprint = ParseRequestLine(
      R"({"id":"r3","op":"fingerprint","region":"FRA","k":10})");
  ASSERT_TRUE(fingerprint.ok()) << fingerprint.status().ToString();
  EXPECT_EQ(fingerprint->request.endpoint, Endpoint::kFingerprint);
  EXPECT_EQ(recipe::RegionCode(fingerprint->request.region),
            std::string("FRA"));

  auto similar =
      ParseRequestLine(R"({"id":"r4","op":"similar","region":"CHN","k":3})");
  ASSERT_TRUE(similar.ok()) << similar.status().ToString();
  EXPECT_EQ(similar->request.endpoint, Endpoint::kSimilar);
  EXPECT_EQ(similar->request.k, 3u);
}

TEST(ProtocolTest, ParsesAdminOps) {
  auto reload = ParseRequestLine(R"({"id":"a1","op":"reload"})");
  ASSERT_TRUE(reload.ok());
  EXPECT_TRUE(reload->is_admin);
  auto shutdown = ParseRequestLine(R"({"op":"shutdown"})");
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(shutdown->is_admin);
  EXPECT_TRUE(shutdown->id.empty());
  auto health = ParseRequestLine(R"({"id":"h1","op":"health"})");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->is_admin);
  EXPECT_EQ(health->op, "health");
  EXPECT_EQ(health->id, "h1");
}

TEST(ProtocolTest, RejectsMalformedLines) {
  // Corrupt traffic is refused at the edge with kParseError, never handed
  // to the engine.
  EXPECT_TRUE(ParseRequestLine("not json").status().IsParseError());
  EXPECT_TRUE(ParseRequestLine("").status().IsParseError());
  EXPECT_TRUE(ParseRequestLine(R"({"op":"score")").status().IsParseError());
  EXPECT_TRUE(ParseRequestLine("[1,2,3]").status().IsParseError());
  // Nested values are outside the flat wire contract.
  EXPECT_TRUE(ParseRequestLine(R"({"op":"score","nested":{"a":1}})")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseRequestLine(R"({"op":"score","matrix":[[1]]})")
                  .status()
                  .IsParseError());
  // Lines truncated right after '[' must fail cleanly, not read past the
  // buffer probing for the array's element kind.
  EXPECT_TRUE(ParseRequestLine(R"({"id":"b","op":"batch","requests":[)")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseRequestLine(R"({"op":"score","ids":[)")
                  .status()
                  .IsParseError());
}

TEST(ProtocolTest, RejectsUnknownOpAndRegion) {
  EXPECT_TRUE(
      ParseRequestLine(R"({"op":"frobnicate"})").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequestLine(R"({"op":"similar","region":"XXX"})")
                  .status()
                  .IsInvalidArgument());
}

TEST(ProtocolTest, IgnoresUnknownKeys) {
  for (const char* line :
       {R"({"op":"ping","trace_id":"abc","retries":3})",
        R"({"op":"ping","trace_id":"abc","trace_id":"def"})"}) {
    auto parsed = ParseRequestLine(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->request.endpoint, Endpoint::kPing) << line;
  }
}

TEST(ProtocolTest, RejectsRepeatedKeys) {
  // A second "op" would win over the first and a second "ids" would extend
  // the first, so a key the server reads may appear once per object, at the
  // top level and inside a batch sub-request alike.
  for (const char* line :
       {R"({"op":"score","op":"suggest","ids":[1,2]})",
        R"({"op":"score","ids":[1],"ids":[2]})",
        R"({"op":"batch","requests":[{"op":"score","ids":[1,2]},)"
        R"({"op":"score","ingredients":["a"],"ingredients":["b"]}]})"}) {
    auto parsed = ParseRequestLine(line);
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << line << ": " << parsed.status().ToString();
  }
}

TEST(ProtocolTest, EscapeJsonHandlesSpecials) {
  EXPECT_EQ(EscapeJson("plain"), "plain");
  EXPECT_EQ(EscapeJson("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(EscapeJson("line\nbreak"), "line\\nbreak");
}

// The one writer and the one reader agree: any byte string escaped by
// EscapeJson parses back to itself.
TEST(ProtocolTest, EscapeJsonRoundTripsThroughTheParser) {
  std::mt19937_64 rng(1803);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string s(rng() % 48, '\0');
    for (char& c : s) c = static_cast<char>(rng() & 0xFF);
    auto parsed =
        ParseRequestLine(R"({"op":"ping","id":")" + EscapeJson(s) + R"("})");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value().id, s);
  }
}

TEST(ProtocolTest, SerializesResponsesAndErrors) {
  Response ok;
  ok.endpoint = Endpoint::kPing;
  ok.generation = 7;
  const std::string line = SerializeResponse("r9", ok);
  EXPECT_NE(line.find("\"id\":\"r9\""), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"generation\":7"), std::string::npos);

  const std::string error =
      SerializeError("bad", Status::ParseError("broken line"));
  EXPECT_NE(error.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(error.find("broken line"), std::string::npos);
}

// --- wire numbers -----------------------------------------------------------
// Client doubles never reach an undefined cast: each line has one defined
// answer.

/// `{"op":...,"ingredients":[two known names]` followed by `tail`.
std::string TwoIngredientLine(const std::string& op, const std::string& tail) {
  const ServingSnapshot& snapshot = *SmallSnapshot();
  return R"({"op":")" + op + R"(","ingredients":[")" +
         IngredientName(snapshot, 0) + R"(",")" + IngredientName(snapshot, 1) +
         R"("])" + tail + "}";
}

TEST(WireNumbersTest, IdsOutsideTheIdTypeOrFractionalAreInvalidArgument) {
  for (const char* line : {R"({"op":"score","ids":[4294967299,3.7]})",
                           R"({"op":"score","ids":[3.7]})",
                           R"({"op":"score","ids":[-2147483649]})",
                           R"({"op":"score","ids":[1e300]})"}) {
    EXPECT_TRUE(ParseRequestLine(line).status().IsInvalidArgument()) << line;
  }
  auto parsed =
      ParseRequestLine(R"({"op":"score","ids":[3,2147483647,-2147483648]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->request.ingredient_ids,
            (std::vector<IngredientId>{3, 2147483647, -2147483648}));
}

TEST(WireNumbersTest, StringIdsAreInvalidArgument) {
  // Dropping a string array under "ids" would leave the request no ids.
  for (const char* line : {R"({"op":"suggest","ids":["3","4"]})",
                           R"({"op":"score","ids":["3"]})"}) {
    EXPECT_TRUE(ParseRequestLine(line).status().IsInvalidArgument()) << line;
  }
  auto empty = ParseRequestLine(R"({"op":"score","ids":[]})");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->request.ingredient_ids.empty());
}

TEST(WireNumbersTest, FractionalKIsInvalidArgument) {
  // Truncating a fractional k would answer "k":2.5 with 2 suggestions.
  for (const char* k : {"2.5", "0.5", "1e-3"}) {
    const std::string line =
        TwoIngredientLine("suggest", std::string(R"(,"k":)") + k);
    EXPECT_TRUE(ParseRequestLine(line).status().IsInvalidArgument()) << line;
  }
  auto whole = ParseRequestLine(TwoIngredientLine("suggest", R"(,"k":2.0)"));
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->request.k, 2u);
}

TEST(WireNumbersTest, KAtOrPastTheCandidateCountReturnsEveryCandidate) {
  auto snapshot = SmallSnapshot();
  QueryEngine engine(snapshot);
  auto answer = [&](const std::string& k) {
    auto parsed =
        ParseRequestLine(TwoIngredientLine("suggest", R"(,"k":)" + k));
    EXPECT_TRUE(parsed.ok()) << k << ": " << parsed.status().ToString();
    return engine.Execute(parsed->request);
  };
  // Every world ingredient outside the two-ingredient set is a candidate.
  const size_t candidates = snapshot->world_cache().num_ingredients() - 2;
  const Response every = answer(std::to_string(candidates));
  ASSERT_TRUE(every.status.ok()) << every.status.ToString();
  EXPECT_EQ(std::get<std::vector<Suggestion>>(every.payload).size(),
            candidates);
  for (const char* k : {"1e15", "1e20", "1e300", "1e999"}) {
    EXPECT_EQ(SerializeResponse("s", answer(k)),
              SerializeResponse("s", every))
        << k;
  }
  engine.Stop();
}

TEST(WireNumbersTest, DeadlinePastTheClockRangeIsNoDeadline) {
  QueryEngine engine(SmallSnapshot());
  auto without = ParseRequestLine(TwoIngredientLine("score", ""));
  auto huge = ParseRequestLine(
      TwoIngredientLine("score", R"(,"deadline_ms":1e300)"));
  ASSERT_TRUE(without.ok() && huge.ok());
  const Response r = engine.Execute(huge->request);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(SerializeResponse("d", r),
            SerializeResponse("d", engine.Execute(without->request)));
  engine.Stop();
}

// --- snapshot validation ----------------------------------------------------

TEST(ServingSnapshotTest, RejectsCacheNotMatchingWorldCuisine) {
  // A rehydrated pairing cache whose ingredient set disagrees with the
  // world cuisine's is corruption (kFailedPrecondition), never a memcpy of
  // mismatched data.
  auto registry = std::make_unique<FlavorRegistry>();
  const IngredientId a =
      registry->AddIngredient("a", Category::kVegetable, FlavorProfile({1, 2}))
          .value();
  const IngredientId b =
      registry->AddIngredient("b", Category::kHerb, FlavorProfile({2, 3}))
          .value();
  const IngredientId c =
      registry->AddIngredient("c", Category::kSpice, FlavorProfile({3, 4}))
          .value();
  auto database = std::make_unique<RecipeDatabase>(registry.get());
  ASSERT_TRUE(database->AddRecipe("abc", Region::kItaly, {a, b, c}).ok());

  // The world cuisine covers {a,b,c}; a cache over {a,b} is stale.
  analysis::PairingCache stale(*registry, {a, b});
  auto built = ServingSnapshot::Build(std::move(registry), std::move(database),
                                      std::move(stale), {});
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsFailedPrecondition())
      << built.status().ToString();
}

TEST(ServingSnapshotTest, AcceptsMatchingRehydratedCache) {
  auto registry = std::make_unique<FlavorRegistry>();
  const IngredientId a =
      registry->AddIngredient("a", Category::kVegetable, FlavorProfile({1, 2}))
          .value();
  const IngredientId b =
      registry->AddIngredient("b", Category::kHerb, FlavorProfile({2, 3}))
          .value();
  auto database = std::make_unique<RecipeDatabase>(registry.get());
  ASSERT_TRUE(database->AddRecipe("ab", Region::kItaly, {a, b}).ok());

  recipe::Cuisine world = database->WorldCuisine();
  analysis::PairingCache cache(*registry, world.unique_ingredients());
  auto built = ServingSnapshot::Build(std::move(registry), std::move(database),
                                      std::move(cache), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ((*built)->world_cache().num_ingredients(), 2u);
}

// --- engine -----------------------------------------------------------------

TEST(QueryEngineTest, ExecutesEveryEndpoint) {
  auto snapshot = SmallSnapshot();
  QueryEngine engine(snapshot, {.num_threads = 2});
  EXPECT_EQ(engine.generation(), 1u);

  Request ping;
  ping.endpoint = Endpoint::kPing;
  Response pinged = engine.Execute(ping);
  ASSERT_TRUE(pinged.status.ok()) << pinged.status.ToString();
  EXPECT_EQ(pinged.generation, 1u);

  Request score;
  score.endpoint = Endpoint::kScore;
  score.ingredient_names = {IngredientName(*snapshot, 0),
                            IngredientName(*snapshot, 1)};
  Response scored = engine.Execute(score);
  ASSERT_TRUE(scored.status.ok()) << scored.status.ToString();
  EXPECT_EQ(std::get<ScoreResult>(scored.payload).resolved.size(), 2u);

  Request suggest = score;
  suggest.endpoint = Endpoint::kSuggest;
  suggest.k = 5;
  Response suggested = engine.Execute(suggest);
  ASSERT_TRUE(suggested.status.ok()) << suggested.status.ToString();
  EXPECT_EQ(std::get<std::vector<Suggestion>>(suggested.payload).size(), 5u);

  Request fingerprint;
  fingerprint.endpoint = Endpoint::kFingerprint;
  fingerprint.region = snapshot->cuisines()[0].region();
  fingerprint.k = 3;
  Response printed = engine.Execute(fingerprint);
  ASSERT_TRUE(printed.status.ok()) << printed.status.ToString();
  EXPECT_GT(std::get<FingerprintResult>(printed.payload).num_recipes, 0u);

  Request similar = fingerprint;
  similar.endpoint = Endpoint::kSimilar;
  Response neighbors = engine.Execute(similar);
  ASSERT_TRUE(neighbors.status.ok()) << neighbors.status.ToString();
  EXPECT_EQ(std::get<SimilarResult>(neighbors.payload).neighbors.size(), 3u);

  engine.Stop();
}

TEST(QueryEngineTest, SubmitAnswersThroughWorkers) {
  QueryEngine engine(SmallSnapshot(), {.num_threads = 4});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) {
    Request ping;
    ping.endpoint = Endpoint::kPing;
    futures.push_back(engine.Submit(std::move(ping)));
  }
  for (auto& f : futures) {
    Response r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  engine.Stop();
  EXPECT_GE(engine.stats().executed, 32u);
}

TEST(QueryEngineTest, ShedsWhenQueueIsFull) {
  // queue_capacity = 0 makes every queued submission overflow: the future
  // must be immediately ready with kUnavailable, never blocked or dropped.
  QueryEngine engine(SmallSnapshot(), {.num_threads = 1, .queue_capacity = 0});
  Request ping;
  ping.endpoint = Endpoint::kPing;
  Response shed = engine.Submit(ping).get();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_GE(engine.stats().shed, 1u);
  engine.Stop();
}

TEST(QueryEngineTest, ReloadBumpsGenerationAndRejectsNull) {
  auto snapshot = SmallSnapshot();
  QueryEngine engine(snapshot);
  ASSERT_TRUE(engine.Reload(snapshot).ok());
  EXPECT_EQ(engine.generation(), 2u);
  EXPECT_TRUE(engine.Reload(nullptr).IsInvalidArgument());
  EXPECT_EQ(engine.generation(), 2u);

  Request ping;
  ping.endpoint = Endpoint::kPing;
  EXPECT_EQ(engine.Execute(ping).generation, 2u);
  engine.Stop();
  EXPECT_EQ(engine.stats().reloads, 1u);
}

TEST(QueryEngineTest, ReloadAfterStopIsRejected) {
  // Satellite regression: a reload racing shutdown must never publish into
  // a stopped engine.
  auto snapshot = SmallSnapshot();
  QueryEngine engine(snapshot);
  engine.Stop();
  const Status status = engine.Reload(snapshot);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_EQ(engine.generation(), 1u);
}

TEST(QueryEngineTest, SubmitAfterStopIsShed) {
  QueryEngine engine(SmallSnapshot());
  engine.Stop();
  Request ping;
  ping.endpoint = Endpoint::kPing;
  Response r = engine.Submit(ping).get();
  EXPECT_TRUE(r.status.IsUnavailable()) << r.status.ToString();
}

TEST(QueryEngineTest, SubmitShedsWithTheDrainAndStopMessages) {
  QueryEngine engine(SmallSnapshot());
  Request ping;
  ping.endpoint = Endpoint::kPing;

  engine.BeginDrain();
  Response shed = engine.Submit(ping).get();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_EQ(shed.status.message(), "draining; admission closed");

  engine.Stop();
  shed = engine.Submit(ping).get();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_EQ(shed.status.message(), "engine stopped");
}

TEST(QueryEngineTest, StopIsIdempotent) {
  QueryEngine engine(SmallSnapshot());
  engine.Stop();
  engine.Stop();
  EXPECT_TRUE(engine.stopped());
}

TEST(QueryEngineTest, HonorsExpiredDeadline) {
  auto snapshot = SmallSnapshot();
  QueryEngine engine(snapshot);
  Request suggest;
  suggest.endpoint = Endpoint::kSuggest;
  suggest.ingredient_names = {IngredientName(*snapshot, 0)};
  suggest.deadline_ms = 0.0;  // already expired when evaluation starts
  Response r = engine.Execute(suggest);
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  engine.Stop();
}

TEST(QueryEngineTest, HonorsCancellation) {
  auto snapshot = SmallSnapshot();
  QueryEngine engine(snapshot);
  CancellationSource source;
  source.RequestCancel();
  Request score;
  score.endpoint = Endpoint::kScore;
  score.ingredient_names = {IngredientName(*snapshot, 0)};
  score.cancel = source.token();
  Response r = engine.Execute(score);
  EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  engine.Stop();
}

TEST(QueryEngineTest, FingerprintUnknownRegionIsNotFound) {
  QueryEngine engine(SmallSnapshot());
  Request fingerprint;
  fingerprint.endpoint = Endpoint::kFingerprint;
  fingerprint.region = Region::kWorld;  // never served as a cuisine
  Response r = engine.Execute(fingerprint);
  EXPECT_TRUE(r.status.IsNotFound()) << r.status.ToString();
  engine.Stop();
}

}  // namespace
}  // namespace culinary::serving
