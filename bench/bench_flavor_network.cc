// Extension experiment: the flavor network (Ahn et al. [6]) over the
// synthetic ingredient universe — the structural view underlying the
// paper's pairing analyses — plus cuisine authenticity rankings.
//
// Reports: network size, degree statistics, clustering, connectivity, the
// multiscale backbone at several significance levels, and the top
// authentic ingredients of representative cuisines (the "signature
// ingredient combinations" the paper attributes cuisines' identities to).

#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/report.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "datagen/world.h"
#include "network/flavor_network.h"

int main(int argc, char** argv) {
  using namespace culinary;  // NOLINT(build/namespaces)
  bool small = false;
  if (!flags::ParseCommandLine(
          argc, argv,
          {flags::Presence("small", &small, "the miniature world")})) {
    return 2;
  }
  const datagen::WorldSpec spec = datagen::WorldSpec::For(small);

  std::fprintf(stderr, "[network] generating world...\n");
  auto world_result = datagen::GenerateWorld(spec);
  if (!world_result.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  const datagen::SyntheticWorld& world = world_result.value();

  auto net_result = network::FlavorNetwork::Build(
      world.registry(), world.registry().LiveIngredients());
  if (!net_result.ok()) {
    std::fprintf(stderr, "network build failed: %s\n",
                 net_result.status().ToString().c_str());
    return 1;
  }
  const network::FlavorNetwork& net = net_result.value();
  const network::Graph& g = net.graph();

  size_t max_degree = 0;
  double mean_degree = 0.0;
  for (uint32_t v = 0; v < g.num_nodes(); ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
    mean_degree += static_cast<double>(g.Degree(v));
  }
  mean_degree /= static_cast<double>(g.num_nodes());

  std::printf("=== Flavor network over the full ingredient universe ===\n");
  std::printf("nodes: %zu   edges: %zu   mean degree: %.1f   max degree: %zu\n",
              g.num_nodes(), g.num_edges(), mean_degree, max_degree);
  std::printf("components: %zu   average clustering: %.3f   mean path "
              "length: %.2f (small-world: high clustering, short paths)\n",
              g.NumComponents(), g.AverageClustering(),
              g.EstimateAveragePathLength());

  analysis::TextTable backbone_table({"alpha", "edges kept", "fraction"});
  for (double alpha : {0.5, 0.1, 0.05, 0.01}) {
    network::Graph backbone = net.ExtractBackbone(alpha);
    backbone_table.AddRow(
        {FormatDouble(alpha, 2), std::to_string(backbone.num_edges()),
         FormatDouble(static_cast<double>(backbone.num_edges()) /
                          static_cast<double>(std::max<size_t>(g.num_edges(), 1)),
                      3)});
  }
  std::printf("\n--- multiscale backbone (disparity filter) ---\n%s\n",
              backbone_table.ToString().c_str());

  // Authenticity: top-3 authentic ingredients of four representative
  // cuisines against the other 21.
  std::vector<recipe::Cuisine> cuisines = world.db().AllCuisines();
  analysis::TextTable auth_table({"Cuisine", "#1", "#2", "#3"});
  const recipe::Region kShow[] = {recipe::Region::kItaly,
                                  recipe::Region::kIndianSubcontinent,
                                  recipe::Region::kJapan,
                                  recipe::Region::kMexico};
  for (recipe::Region region : kShow) {
    size_t target = 0;
    for (size_t c = 0; c < cuisines.size(); ++c) {
      if (cuisines[c].region() == region) target = c;
    }
    auto auth = network::MostAuthenticIngredients(cuisines, target, 3);
    if (!auth.ok()) {
      std::fprintf(stderr, "authenticity failed\n");
      return 1;
    }
    std::vector<std::string> row = {std::string(recipe::RegionCode(region))};
    for (const auto& ai : *auth) {
      const flavor::Ingredient* ing = world.registry().Find(ai.id);
      row.push_back((ing != nullptr ? ing->name : "?") + " (p=" +
                    FormatDouble(ai.authenticity, 2) + ")");
    }
    auth_table.AddRow(row);
  }
  std::printf("--- most authentic ingredients (prevalence vs other cuisines) "
              "---\n%s\n",
              auth_table.ToString().c_str());
  std::printf("Expectation: a giant connected component with high clustering "
              "(pool structure); backbone keeps the strong within-pool "
              "edges; authentic ingredients are region-specific popular "
              "items.\n");
  return 0;
}
