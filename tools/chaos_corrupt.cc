// chaos_corrupt: deterministically mangles a serialized corpus with the
// damage mix real deployments exhibit. The schedule is a pure function of
// (input bytes, --seed), so a failing downstream run replays exactly.
//
// CSV mode (default): truncation, unterminated quotes, bit flips,
// duplicated records, oversized fields, ragged rows.
//
// Snapshot mode (--snapshot-mode=MODE): targets one corruption class of the
// binary world-snapshot format per run, so every loader branch is
// reachable from a soak script. Modes: flip-magic, zero-section-checksum,
// truncate-mid-section, bitflip-payload, wrong-digest.
//
// Usage: chaos_corrupt <in> <out> [--seed=N]
//          [--rate=0.05] [--no-truncate] [--no-quote] [--no-bitflip]
//          [--no-dup] [--no-oversize] [--no-ragged] [--corrupt-header]
//          [--snapshot-mode=MODE]
//
// Prints the applied mutation to stderr. Exits 1 on IO failure and 2 on a
// usage error: an unknown flag, or a --rate outside [0, 1] or a --seed that
// is not a whole unsigned decimal.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "robustness/chaos.h"
#include "snapshot/chaos.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: chaos_corrupt <in> <out> [--rate=0.05] [--seed=N]\n"
      "                     [--no-truncate] [--no-quote] [--no-bitflip]\n"
      "                     [--no-dup] [--no-oversize] [--no-ragged]\n"
      "                     [--corrupt-header]\n"
      "                     [--snapshot-mode=flip-magic|zero-section-checksum|"
      "truncate-mid-section|bitflip-payload|wrong-digest]\n");
}

int UsageError(const char* what, const std::string& arg) {
  std::fprintf(stderr, "%s: %s\n", what, arg.c_str());
  PrintUsage();
  return 2;
}

/// Strict parses: the whole value must be consumed, so a typo is a usage
/// error rather than strtod/strtoull's "0 on garbage".
bool ParseRate(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  if (!(parsed >= 0.0 && parsed <= 1.0)) return false;  // NaN fails too
  *out = parsed;
  return true;
}

bool ParseSeed(const char* text, uint64_t* out) {
  if (*text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using culinary::StartsWith;
  using culinary::robustness::ChaosOptions;
  using culinary::robustness::ChaosStats;

  if (argc < 3) {
    PrintUsage();
    return 2;
  }
  const std::string in_path = argv[1];
  const std::string out_path = argv[2];
  ChaosOptions options;
  std::string snapshot_mode;
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    if (StartsWith(a, "--snapshot-mode=")) {
      snapshot_mode = a.substr(strlen("--snapshot-mode="));
    } else if (StartsWith(a, "--rate=")) {
      if (!ParseRate(a.c_str() + strlen("--rate="), &options.corruption_rate)) {
        return UsageError("bad value", a);
      }
    } else if (StartsWith(a, "--seed=")) {
      if (!ParseSeed(a.c_str() + strlen("--seed="), &options.seed)) {
        return UsageError("bad value", a);
      }
    } else if (a == "--no-truncate") {
      options.enable_truncation = false;
    } else if (a == "--no-quote") {
      options.enable_unterminated_quote = false;
    } else if (a == "--no-bitflip") {
      options.enable_bit_flips = false;
    } else if (a == "--no-dup") {
      options.enable_duplicate_lines = false;
    } else if (a == "--no-oversize") {
      options.enable_oversized_fields = false;
    } else if (a == "--no-ragged") {
      options.enable_ragged_rows = false;
    } else if (a == "--corrupt-header") {
      options.preserve_header = false;
    } else {
      return UsageError("unknown flag", a);
    }
  }

  if (!snapshot_mode.empty()) {
    auto mode = culinary::snapshot::ParseSnapshotCorruptionMode(snapshot_mode);
    if (!mode.ok()) {
      std::fprintf(stderr, "chaos_corrupt: %s\n",
                   mode.status().ToString().c_str());
      PrintUsage();
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
