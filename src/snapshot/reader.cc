#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "robustness/fault_injector.h"
#include "snapshot/byte_io.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace culinary::snapshot {

namespace {

using internal::ByteReader;

culinary::Status Truncated(const std::string& path, const std::string& what) {
  return culinary::Status::OutOfRange("snapshot " + path + " is truncated: " +
                                      what);
}

culinary::Status DecodeFailure(ByteReader& reader, const char* section) {
  if (!reader.ok()) {
    return culinary::Status::OutOfRange(std::string("snapshot ") + section +
                                        " section is truncated");
  }
  return culinary::Status::ParseError(std::string("snapshot ") + section +
                                      " section is internally inconsistent");
}

culinary::Result<std::unique_ptr<flavor::FlavorRegistry>> DecodeRegistry(
    std::string_view payload) {
  ByteReader r(payload);
  auto registry = std::make_unique<flavor::FlavorRegistry>();
  const uint64_t num_molecules = r.U64();
  if (!r.FitsArray(num_molecules, 8)) {
    return DecodeFailure(r, "registry");
  }
  for (uint64_t m = 0; m < num_molecules; ++m) {
    std::string name(r.Str());
    const uint32_t num_descriptors = r.U32();
    if (!r.FitsArray(num_descriptors, 4)) return DecodeFailure(r, "registry");
    std::vector<std::string> descriptors;
    descriptors.reserve(num_descriptors);
    for (uint32_t d = 0; d < num_descriptors; ++d) {
      descriptors.emplace_back(r.Str());
    }
    if (!r.ok()) return DecodeFailure(r, "registry");
    culinary::Result<flavor::MoleculeId> added =
        registry->AddMolecule(std::move(name), std::move(descriptors));
    if (!added.ok() ||
        added.value() != static_cast<flavor::MoleculeId>(m)) {
      return culinary::Status::ParseError(
          "snapshot registry section is internally inconsistent: molecule " +
          std::to_string(m));
    }
  }
  const uint64_t num_slots = r.U64();
  if (!r.FitsArray(num_slots, 16)) return DecodeFailure(r, "registry");
  for (uint64_t i = 0; i < num_slots; ++i) {
    flavor::Ingredient ing;
    ing.id = static_cast<flavor::IngredientId>(i);
    ing.name = std::string(r.Str());
    const uint8_t category = r.U8();
    const uint8_t kind = r.U8();
    const uint8_t removed = r.U8();
    r.U8();  // pad
    if (category >= flavor::kNumCategories || kind > 2 || removed > 1) {
      return DecodeFailure(r, "registry");
    }
    ing.category = static_cast<flavor::Category>(category);
    ing.kind = static_cast<flavor::IngredientKind>(kind);
    ing.removed = removed != 0;
    const uint32_t num_synonyms = r.U32();
    if (!r.FitsArray(num_synonyms, 4)) return DecodeFailure(r, "registry");
    ing.synonyms.reserve(num_synonyms);
    for (uint32_t s = 0; s < num_synonyms; ++s) {
      ing.synonyms.emplace_back(r.Str());
    }
    const uint32_t num_profile = r.U32();
    if (!r.FitsArray(num_profile, 4)) return DecodeFailure(r, "registry");
    std::vector<flavor::MoleculeId> profile_ids;
    profile_ids.reserve(num_profile);
    for (uint32_t p = 0; p < num_profile; ++p) profile_ids.push_back(r.I32());
    ing.profile = flavor::FlavorProfile(std::move(profile_ids));
    const uint32_t num_constituents = r.U32();
    if (!r.FitsArray(num_constituents, 4)) {
      return DecodeFailure(r, "registry");
    }
    ing.constituents.reserve(num_constituents);
    for (uint32_t c = 0; c < num_constituents; ++c) {
      ing.constituents.push_back(r.I32());
    }
    if (!r.ok()) return DecodeFailure(r, "registry");
    culinary::Status restored = registry->RestoreIngredient(ing);
    if (!restored.ok()) {
      return culinary::Status::ParseError(
          "snapshot registry section is internally inconsistent: slot " +
          std::to_string(i) + ": " + restored.message());
    }
  }
  if (!r.AtEnd()) return DecodeFailure(r, "registry");
  return registry;
}

culinary::Result<std::unique_ptr<recipe::RecipeDatabase>> DecodeRecipes(
    std::string_view payload, const flavor::FlavorRegistry* registry) {
  ByteReader r(payload);
  auto database = std::make_unique<recipe::RecipeDatabase>(registry);
  const uint64_t num_recipes = r.U64();
  if (!r.FitsArray(num_recipes, 9)) return DecodeFailure(r, "recipes");
  for (uint64_t i = 0; i < num_recipes; ++i) {
    std::string name(r.Str());
    const uint8_t region = r.U8();
    const uint32_t num_ids = r.U32();
    if (region >= recipe::kNumRegions || !r.FitsArray(num_ids, 4)) {
      return DecodeFailure(r, "recipes");
    }
    std::vector<flavor::IngredientId> ids;
    ids.reserve(num_ids);
    for (uint32_t k = 0; k < num_ids; ++k) ids.push_back(r.I32());
    if (!r.ok()) return DecodeFailure(r, "recipes");
    culinary::Result<recipe::RecipeId> added = database->AddRecipe(
        std::move(name), static_cast<recipe::Region>(region), std::move(ids));
    if (!added.ok()) {
      return culinary::Status::ParseError(
          "snapshot recipes section is internally inconsistent: recipe " +
          std::to_string(i) + ": " + added.status().message());
    }
  }
  if (!r.AtEnd()) return DecodeFailure(r, "recipes");
  return database;
}

culinary::Result<analysis::PairingCache> DecodePairing(
    std::string_view payload, const flavor::FlavorRegistry& registry) {
  ByteReader r(payload);
  const uint64_t n = r.U64();
  if (!r.FitsArray(n, 4)) return DecodeFailure(r, "pairing");
  std::vector<flavor::IngredientId> ids;
  ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) ids.push_back(r.I32());
  r.AlignTo8();
  const uint64_t tri_len = r.U64();
  if (!r.FitsArray(tri_len, sizeof(uint16_t))) {
    return DecodeFailure(r, "pairing");
  }
  std::string_view tri_bytes = r.Bytes(tri_len * sizeof(uint16_t));
  if (!r.ok() || !r.AtEnd()) return DecodeFailure(r, "pairing");
  // The payload starts 8-byte aligned in the mapping and the id array is
  // padded, so this cast is aligned; the copy into the cache happens inside
  // FromPrecomputed via memcpy.
  return analysis::PairingCache::FromPrecomputed(
      registry, std::move(ids),
      reinterpret_cast<const uint16_t*>(tri_bytes.data()), tri_len);
}

}  // namespace

bool IsCorruptionStatus(const culinary::Status& status) {
  return status.IsParseError() || status.IsOutOfRange() ||
         status.IsFailedPrecondition();
}

// --- SnapshotView ----------------------------------------------------------

SnapshotView::SnapshotView(SnapshotView&& other) noexcept {
  *this = std::move(other);
}

SnapshotView& SnapshotView::operator=(SnapshotView&& other) noexcept {
  if (this != &other) {
    Release();
    path_ = std::move(other.path_);
    base_ = other.base_;
    size_ = other.size_;
    version_ = other.version_;
    world_digest_ = other.world_digest_;
    entries_ = std::move(other.entries_);
    other.base_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

SnapshotView::~SnapshotView() { Release(); }

void SnapshotView::Release() {
  if (base_ != nullptr) {
    ::munmap(const_cast<char*>(base_), size_);
    base_ = nullptr;
    size_ = 0;
  }
}

culinary::Result<SnapshotView> SnapshotView::Open(const std::string& path) {
  CULINARY_RETURN_IF_ERROR(
      robustness::FaultInjector::Global()
          .Check(robustness::kFaultSnapshotMmap)
          .WithContext("mapping snapshot " + path));
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return culinary::Status::NotFound("no snapshot at " + path);
    }
    return culinary::Status::IOError("cannot open snapshot " + path + ": " +
                                     std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return culinary::Status::IOError("cannot stat snapshot " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return Truncated(path, "file smaller than the header");
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapped == MAP_FAILED) {
    return culinary::Status::IOError("cannot mmap snapshot " + path + ": " +
                                     std::strerror(errno));
  }
  SnapshotView view;
  view.path_ = path;
  view.base_ = static_cast<const char*>(mapped);
  view.size_ = size;

  // Header: magic, endianness, version, then bounds + checksum over the
  // header and section table. Everything here is eager — a few dozen bytes.
  if (std::memcmp(view.base_, kSnapshotMagic.data(), kSnapshotMagic.size()) !=
      0) {
    return culinary::Status::ParseError("snapshot " + path +
                                        " has a bad magic header");
  }
  const auto read_u32 = [&view](size_t offset) {
    uint32_t v;
    std::memcpy(&v, view.base_ + offset, sizeof(v));
    return v;
  };
  const auto read_u64 = [&view](size_t offset) {
    uint64_t v;
    std::memcpy(&v, view.base_ + offset, sizeof(v));
    return v;
  };
  if (read_u32(8) != kEndianTag) {
    return culinary::Status::FailedPrecondition(
        "snapshot " + path + " was written with a different byte order");
  }
  view.version_ = read_u32(12);
  if (view.version_ != kFormatVersion) {
    return culinary::Status::FailedPrecondition(
        "snapshot " + path + " is format v" + std::to_string(view.version_) +
        " but this build reads v" + std::to_string(kFormatVersion));
  }
  const uint32_t section_count = read_u32(16);
  view.world_digest_ = read_u64(24);
  const uint64_t stored_checksum = read_u64(kHeaderChecksumOffset);
  const size_t table_bytes =
      static_cast<size_t>(section_count) * kSectionEntryBytes;
  if (section_count > 1024 ||
      table_bytes > size - kSectionTableOffset) {
    return Truncated(path, "section table extends past end of file");
  }
  uint64_t checksum = Fnv64(view.base_, kHeaderChecksumOffset);
  checksum = Fnv64Continue(checksum, view.base_ + kSectionTableOffset,
                           table_bytes);
  if (checksum != stored_checksum) {
    return culinary::Status::ParseError("snapshot " + path +
                                        " header checksum mismatch");
  }
  for (uint32_t s = 0; s < section_count; ++s) {
    const size_t entry = kSectionTableOffset + s * kSectionEntryBytes;
    Entry e;
    e.id = static_cast<SectionId>(read_u32(entry));
    e.offset = read_u64(entry + 8);
    e.size = read_u64(entry + 16);
    e.checksum = read_u64(entry + 24);
    if (e.offset > size || e.size > size - e.offset) {
      return Truncated(path, std::string(SectionName(e.id)) +
                                 " section extends past end of file");
    }
    if (e.offset % kSectionAlignment != 0) {
      return culinary::Status::ParseError(
          "snapshot " + path + " has a misaligned " +
          std::string(SectionName(e.id)) + " section");
    }
    view.entries_.push_back(e);
  }
  return view;
}

bool SnapshotView::HasSection(SectionId id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) return true;
  }
  return false;
}

culinary::Result<std::string_view> SnapshotView::Section(SectionId id) {
  for (Entry& e : entries_) {
    if (e.id != id) continue;
    if (e.verdict == 0) {
      CULINARY_RETURN_IF_ERROR(
          robustness::FaultInjector::Global()
              .Check(robustness::kFaultSnapshotVerify)
              .WithContext("verifying snapshot section " +
                           std::string(SectionName(id))));
      CULINARY_OBS_SPAN(verify_span, "snapshot.verify", "snapshot");
      const uint64_t actual = Fnv64(base_ + e.offset, e.size);
      e.verdict = actual == e.checksum ? 1 : 2;
      if (e.verdict == 2) {
        CULINARY_OBS_COUNT("snapshot.corrupt_section", 1);
      }
    }
    if (e.verdict != 1) {
      return culinary::Status::ParseError(
          "snapshot " + path_ + " " + std::string(SectionName(id)) +
          " section checksum mismatch");
    }
    return std::string_view(base_ + e.offset, e.size);
  }
  return culinary::Status::NotFound("snapshot " + path_ + " has no " +
                                    std::string(SectionName(id)) +
                                    " section");
}

// --- Loader ----------------------------------------------------------------

culinary::Result<LoadedWorld> LoadWorldSnapshot(
    const std::string& path, const SnapshotLoadOptions& options) {
  CULINARY_OBS_SPAN(load_span, "snapshot.load", "snapshot");
  CULINARY_ASSIGN_OR_RETURN(SnapshotView view, SnapshotView::Open(path));
  if (options.expected_digest.has_value() &&
      view.world_digest() != *options.expected_digest) {
    return culinary::Status::FailedPrecondition(
        "snapshot " + path +
        " was built from different inputs (digest mismatch); it is stale");
  }
  LoadedWorld world;
  {
    CULINARY_ASSIGN_OR_RETURN(std::string_view payload,
                              view.Section(SectionId::kRegistry));
    CULINARY_ASSIGN_OR_RETURN(world.registry_ptr, DecodeRegistry(payload));
  }
  {
    CULINARY_ASSIGN_OR_RETURN(std::string_view payload,
                              view.Section(SectionId::kRecipes));
    CULINARY_ASSIGN_OR_RETURN(
        world.database, DecodeRecipes(payload, world.registry_ptr.get()));
  }
  if (view.HasSection(SectionId::kPairing)) {
    CULINARY_ASSIGN_OR_RETURN(std::string_view payload,
                              view.Section(SectionId::kPairing));
    CULINARY_ASSIGN_OR_RETURN(analysis::PairingCache cache,
                              DecodePairing(payload, *world.registry_ptr));
    world.world_cache.emplace(std::move(cache));
  }
  CULINARY_OBS_COUNT("snapshot.load_ok", 1);
  return world;
}

// --- Degradation -----------------------------------------------------------

culinary::Result<LoadedWorld> LoadWorldSnapshotOrRebuild(
    const std::string& path, uint64_t expected_digest,
    robustness::ErrorPolicy policy, const WorldRebuildFn& rebuild,
    bool rewrite_snapshot, SnapshotFallbackReport* report) {
  SnapshotFallbackReport local_report;
  SnapshotFallbackReport& out = report != nullptr ? *report : local_report;
  out = SnapshotFallbackReport{};

  SnapshotLoadOptions load_options;
  load_options.expected_digest = expected_digest;
  culinary::Result<LoadedWorld> loaded = LoadWorldSnapshot(path, load_options);
  if (loaded.ok()) {
    out.snapshot_used = true;
    return loaded;
  }
  const culinary::Status why = loaded.status();

  const auto rebuild_and_refresh =
      [&]() -> culinary::Result<LoadedWorld> {
    culinary::Result<LoadedWorld> world = rebuild();
    if (!world.ok()) {
      return world.status().WithContext("rebuilding world after snapshot "
                                        "miss");
    }
    if (rewrite_snapshot) {
      culinary::Status wrote =
          WriteSnapshotForWorld(world.value(), expected_digest, path);
      if (wrote.ok()) {
        out.rewrote = true;
      } else if (!out.note.empty()) {
        out.note += "; snapshot rewrite failed: " + wrote.message();
      } else {
        out.note = "snapshot rewrite failed: " + wrote.message();
      }
    }
    return world;
  };

  if (why.IsNotFound()) {
    // Cold start: no snapshot yet. Not a failure and not a fallback.
    out.snapshot_missing = true;
    out.note = why.message();
    return rebuild_and_refresh();
  }
  if (policy == robustness::ErrorPolicy::kStrict) {
    return why;
  }
  // Degraded: quarantine the corrupt/stale file so the evidence survives
  // (and so a retry loop cannot spin on the same bad bytes), then rebuild.
  CULINARY_OBS_COUNT("snapshot.fallback", 1);
  out.fell_back = true;
  out.note = why.message();
  if (IsCorruptionStatus(why)) {
    const std::string quarantine = path + ".quarantined";
    if (std::rename(path.c_str(), quarantine.c_str()) == 0) {
      out.quarantine_path = quarantine;
    }
  }
  return rebuild_and_refresh();
}

}  // namespace culinary::snapshot
