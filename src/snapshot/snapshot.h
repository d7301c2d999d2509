#ifndef CULINARYLAB_SNAPSHOT_SNAPSHOT_H_
#define CULINARYLAB_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pairing.h"
#include "common/result.h"
#include "common/status.h"
#include "flavor/registry.h"
#include "recipe/database.h"
#include "robustness/error_sink.h"
#include "snapshot/format.h"

namespace culinary::snapshot {

/// A fully materialized world as reconstructed from a snapshot (or rebuilt
/// from source data by a fallback). The database borrows the heap-allocated
/// registry, so the struct is movable with stable internal pointers —
/// mirroring `datagen::SyntheticWorld`.
struct LoadedWorld {
  std::unique_ptr<flavor::FlavorRegistry> registry_ptr;
  std::unique_ptr<recipe::RecipeDatabase> database;
  /// The world-cuisine PairingCache, when the snapshot carried one (or a
  /// caller built it). Loading it from a snapshot is a memcpy of the uint16
  /// triangle, not an O(n²) popcount rebuild.
  std::optional<analysis::PairingCache> world_cache;

  const flavor::FlavorRegistry& registry() const { return *registry_ptr; }
  const recipe::RecipeDatabase& db() const { return *database; }
};

// --- World-inputs digest ---------------------------------------------------
//
// Every snapshot records a digest of the inputs its world was built from, so
// a snapshot can never be silently applied to the wrong source data: loaders
// pass the digest of the inputs they *would* rebuild from, and a mismatch is
// a typed kFailedPrecondition that the fallback path treats as a stale
// snapshot (quarantine + rebuild + rewrite).

/// Digest for a generated world: a pure function of (seed, spec size).
uint64_t DigestGeneratedWorld(uint64_t seed, bool small_world);

/// Digest over raw file bytes (order-sensitive). Cheaper than parsing; any
/// byte change in any input invalidates dependent snapshots. kNotFound /
/// kIOError when a file is unreadable.
culinary::Result<uint64_t> DigestFiles(const std::vector<std::string>& paths);

/// Chains two digests (non-commutative).
uint64_t CombineDigests(uint64_t a, uint64_t b);

// --- Writing ---------------------------------------------------------------

struct SnapshotWriteOptions {
  /// fsync file + directory entry (see common/atomic_file.h). Disable only
  /// in benchmarks isolating serialization cost.
  bool sync = true;
};

/// Serializes the world and publishes it crash-safely (temp → fsync →
/// rename → directory fsync): a crash at any point leaves either the old
/// valid snapshot or none — never a torn file that loads. `world_cache` may
/// be null, omitting the pairing section. Fault sites: `snapshot.write`
/// (bytes staged), `snapshot.rename` (publish boundary).
culinary::Status WriteWorldSnapshot(const flavor::FlavorRegistry& registry,
                                    const recipe::RecipeDatabase& database,
                                    const analysis::PairingCache* world_cache,
                                    uint64_t world_digest,
                                    const std::string& path,
                                    const SnapshotWriteOptions& options = {});

/// Convenience: snapshots `world`, first building its world PairingCache if
/// absent (so the snapshot always carries the pairing section).
culinary::Status WriteSnapshotForWorld(LoadedWorld& world,
                                       uint64_t world_digest,
                                       const std::string& path,
                                       const SnapshotWriteOptions& options = {});

// --- Reading ---------------------------------------------------------------

/// Zero-copy view of a snapshot file: the file is mmap'd, the header and
/// section table are verified eagerly (cheap — tens of bytes), and each
/// section's checksum is verified lazily on first access. Move-only; the
/// mapping lives until destruction, and section views borrow it.
///
/// Fault sites: `snapshot.mmap` (open/map), `snapshot.verify` (per-section
/// checksum pass).
class SnapshotView {
 public:
  static culinary::Result<SnapshotView> Open(const std::string& path);

  SnapshotView(SnapshotView&& other) noexcept;
  SnapshotView& operator=(SnapshotView&& other) noexcept;
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;
  ~SnapshotView();

  uint32_t version() const { return version_; }
  uint64_t world_digest() const { return world_digest_; }
  size_t num_sections() const { return entries_.size(); }

  /// True iff the table lists `id`.
  bool HasSection(SectionId id) const;

  /// The section's raw payload bytes, checksum-verified on first call (the
  /// verdict is memoized). kNotFound when absent, kParseError on checksum
  /// mismatch. The view must outlive the returned bytes.
  culinary::Result<std::string_view> Section(SectionId id);

  const std::string& path() const { return path_; }

 private:
  struct Entry {
    SectionId id;
    uint64_t offset;
    uint64_t size;
    uint64_t checksum;
    /// 0 = unverified, 1 = verified OK, 2 = verified corrupt.
    uint8_t verdict = 0;
  };

  SnapshotView() = default;
  void Release();

  std::string path_;
  const char* base_ = nullptr;
  size_t size_ = 0;
  uint32_t version_ = 0;
  uint64_t world_digest_ = 0;
  std::vector<Entry> entries_;
};

struct SnapshotLoadOptions {
  /// When set, the snapshot's recorded digest must match or the load fails
  /// with kFailedPrecondition (stale snapshot).
  std::optional<uint64_t> expected_digest;
};

/// Loads a full world from a snapshot. Every corruption class returns a
/// typed error (see format.h) and never partially applies: the world is
/// assembled into fresh objects and only returned on full success.
/// Increments `snapshot.load_ok` on success and `snapshot.corrupt_section`
/// per section that fails verification.
culinary::Result<LoadedWorld> LoadWorldSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

// --- Degradation -----------------------------------------------------------

/// What the fallback orchestrator did, for logs and tests.
struct SnapshotFallbackReport {
  /// The snapshot loaded and was used.
  bool snapshot_used = false;
  /// The snapshot was missing (cold start, not an error).
  bool snapshot_missing = false;
  /// A corrupt/stale snapshot was abandoned and the world rebuilt.
  bool fell_back = false;
  /// A fresh snapshot was written after the rebuild.
  bool rewrote = false;
  /// Where the corrupt snapshot was moved (empty when none / move failed).
  std::string quarantine_path;
  /// Human-readable cause of the miss or fallback.
  std::string note;
};

/// True for every status class the degradation policy treats as a corrupt
/// or stale snapshot (kParseError, kOutOfRange, kFailedPrecondition) — as
/// opposed to a missing file or an environment error, which are not
/// quarantine-worthy.
bool IsCorruptionStatus(const culinary::Status& status);

/// Rebuilds the world from source data (CSV parse or generation).
using WorldRebuildFn = std::function<culinary::Result<LoadedWorld>()>;

/// The degradation policy around `LoadWorldSnapshot`:
///
///   load OK ............ return it (`snapshot.load_ok`)
///   missing ............ rebuild; write a fresh snapshot when
///                        `rewrite_snapshot` (a cold start, not a failure)
///   corrupt or stale ... kStrict: fail fast with the typed error.
///                        kSkipAndReport / kBestEffort: quarantine the file
///                        (rename to `<path>.quarantined`), count
///                        `snapshot.fallback`, rebuild from source, and
///                        rewrite a fresh snapshot when `rewrite_snapshot`.
///
/// The rebuilt world is bit-identical to what the snapshot would have
/// produced (same inputs, same deterministic pipeline), so degradation is
/// invisible to analysis output — only slower.
culinary::Result<LoadedWorld> LoadWorldSnapshotOrRebuild(
    const std::string& path, uint64_t expected_digest,
    robustness::ErrorPolicy policy, const WorldRebuildFn& rebuild,
    bool rewrite_snapshot, SnapshotFallbackReport* report = nullptr);

}  // namespace culinary::snapshot

#endif  // CULINARYLAB_SNAPSHOT_SNAPSHOT_H_
