#ifndef CULINARYLAB_FLAVOR_REGISTRY_IO_H_
#define CULINARYLAB_FLAVOR_REGISTRY_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "flavor/registry.h"
#include "robustness/error_sink.h"

namespace culinary::flavor {

/// CSV persistence for a `FlavorRegistry`, making a generated flavor
/// universe a portable artifact (analyses can run against saved data
/// without regenerating the synthetic world).
///
/// Two files are written next to each other:
///
///   <prefix>_molecules.csv    id,name,descriptors        (';'-separated)
///   <prefix>_entities.csv     id,name,category,kind,synonyms,profile,
///                             constituents               (';'-separated
///                             molecule ids / ingredient ids)
///
/// Loading reconstructs ids exactly (tombstoned ids are preserved as gaps
/// re-created and re-removed), so recipe CSVs that reference ingredient
/// names resolve identically against the loaded registry.

/// Controls degraded-mode loading of a possibly-damaged registry dump.
struct RegistryLoadOptions {
  /// kStrict fails fast on the first malformed row (seed behaviour). The
  /// degraded policies quarantine damaged rows: a quarantined molecule/
  /// entity row is replaced by a placeholder slot (tombstoned, for
  /// entities) so that every later id in the file still resolves to the
  /// same slot — id space is load-bearing for profiles and constituents.
  /// kBestEffort additionally salvages partially-damaged rows (drops
  /// dangling molecule/constituent ids, defaults an unknown kind to basic).
  robustness::ErrorPolicy error_policy = robustness::ErrorPolicy::kStrict;
  /// Receives row diagnostics under the degraded policies (may be null).
  robustness::ErrorSink* error_sink = nullptr;
  /// Receives merged accounting over both files (may be null).
  robustness::IngestStats* stats = nullptr;
};

/// Writes both CSV files crash-safely (temp file + rename, see
/// `CsvWriteOptions::atomic_write`): a crash mid-save leaves any previous
/// dump loadable. IOError on filesystem failure, annotated with the file
/// being written.
culinary::Status SaveRegistryCsv(const FlavorRegistry& registry,
                                 const std::string& prefix);

/// Reads both CSV files written by `SaveRegistryCsv`. ParseError on
/// malformed content (unknown category/kind, dangling molecule or
/// constituent ids, non-contiguous ids).
culinary::Result<FlavorRegistry> LoadRegistryCsv(const std::string& prefix);

/// `LoadRegistryCsv` with explicit error policy, diagnostics and
/// accounting (see `RegistryLoadOptions`).
culinary::Result<FlavorRegistry> LoadRegistryCsv(
    const std::string& prefix, const RegistryLoadOptions& options);

}  // namespace culinary::flavor

#endif  // CULINARYLAB_FLAVOR_REGISTRY_IO_H_
