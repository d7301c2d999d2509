// chaos_corrupt: deterministically mangles a serialized corpus with the
// damage mix real deployments exhibit. The schedule is a pure function of
// (input bytes, seed), so a failing downstream run replays exactly.
//
// CSV mode (the default) mixes truncation, unterminated quotes, bit flips,
// duplicated records, oversized fields and ragged rows. Snapshot mode
// targets one corruption class of the binary world-snapshot format per
// run, so every loader branch is reachable from a soak script.
//
// Prints the applied mutation to stderr. Exits 1 on IO failure and 2 on a
// usage error.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "robustness/chaos.h"
#include "snapshot/chaos.h"

int main(int argc, char** argv) {
  using culinary::robustness::ChaosOptions;
  using culinary::robustness::ChaosStats;
  namespace flags = culinary::flags;

  ChaosOptions options;
  std::string snapshot_mode;
  std::vector<std::string> paths;
  const std::vector<flags::Flag> table = {
      flags::Double("rate", &options.corruption_rate,
                    "share of records to damage", 0.0, 1.0),
      flags::Unsigned("seed", &options.seed, "damage schedule seed"),
      flags::Presence("no-truncate", &options.enable_truncation,
                      "no truncation", false),
      flags::Presence("no-quote", &options.enable_unterminated_quote,
                      "no unterminated quotes", false),
      flags::Presence("no-bitflip", &options.enable_bit_flips, "no bit flips",
                      false),
      flags::Presence("no-dup", &options.enable_duplicate_lines,
                      "no duplicated records", false),
      flags::Presence("no-oversize", &options.enable_oversized_fields,
                      "no oversized fields", false),
      flags::Presence("no-ragged", &options.enable_ragged_rows,
                      "no ragged rows", false),
      flags::Presence("corrupt-header", &options.preserve_header,
                      "let the header row be damaged too", false),
      flags::String("snapshot-mode", &snapshot_mode, "MODE",
                    "damage a world snapshot instead: flip-magic, "
                    "zero-section-checksum, truncate-mid-section, "
                    "bitflip-payload or wrong-digest")};
  const flags::Positionals in_out{"<in> <out>", 2, 2, &paths};
  if (!flags::ParseCommandLine(argc, argv, table, in_out)) return 2;
  const std::string& in_path = paths[0];
  const std::string& out_path = paths[1];

  if (!snapshot_mode.empty()) {
    auto mode = culinary::snapshot::ParseSnapshotCorruptionMode(snapshot_mode);
    if (!mode.ok()) {
      std::fprintf(stderr, "chaos_corrupt: %s\n%s",
                   mode.status().ToString().c_str(),
                   flags::Usage(argv[0], table, in_out).c_str());
      return 2;
    }
    culinary::Status status = culinary::snapshot::CorruptSnapshotFile(
        in_path, out_path, mode.value(), options.seed);
    if (!status.ok()) {
      std::fprintf(stderr, "chaos_corrupt: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "chaos_corrupt: %s -> %s (seed %llu): snapshot %s\n",
                 in_path.c_str(), out_path.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 snapshot_mode.c_str());
    return 0;
  }

  ChaosStats stats;
  culinary::Status status = culinary::robustness::CorruptCsvFile(
      in_path, out_path, options, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "chaos_corrupt: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "chaos_corrupt: %s -> %s (seed %llu): %s\n",
               in_path.c_str(), out_path.c_str(),
               static_cast<unsigned long long>(options.seed),
               stats.Summary().c_str());
  return 0;
}
