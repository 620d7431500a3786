// VenueRegistry: one process serving a *fleet* of venues off disk. A plain
// text manifest maps venue ids to snapshot files; Acquire(venue_id) lazily
// loads the snapshot (zero-copy mmap for format-v2 files) and hands out a
// shared immutable VenueBundle, so the process-wide cost of a registered
// venue is O(resident-pages) of its mapped snapshot until it is queried —
// the multi-venue deployment shape ROADMAP calls for and the indoor-index
// experimental literature identifies as memory-bound.
//
// Manifest format (text, UTF-8):
//
//   # comment / blank lines ignored
//   <venue-id> <snapshot-path>
//
// One entry per line; the id is a single whitespace-free token, the path is
// the rest of the line (leading whitespace trimmed). Relative paths resolve
// against the manifest's directory, so a registry directory can be moved or
// mounted wholesale. Duplicate ids are a manifest error.
//
// Thread-safety: Acquire/Evict/NumResident are safe to call concurrently;
// the returned bundles are immutable and may be shared across threads and
// engines (engine::QueryEngine's shared-bundle constructor). Snapshot
// loads run under a *per-entry* mutex: a slow first-touch load of one
// venue never blocks Acquire of any other venue — the registry-wide lock
// only covers map lookups and LRU bookkeeping.
//
// Residency policy: RegistryOptions::max_resident_venues caps how many
// bundles stay cached at once. When a load would exceed the cap, the
// least-recently-acquired resident bundle is evicted (outstanding
// shared_ptrs stay valid — eviction only drops the cache's reference), so
// a fleet process's memory tracks its working set, not its manifest.

#ifndef VIPTREE_ENGINE_VENUE_REGISTRY_H_
#define VIPTREE_ENGINE_VENUE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/venue_bundle.h"
#include "io/binary_io.h"

namespace viptree {
namespace engine {

struct RegistryOptions {
  // Maximum bundles kept resident at once; 0 means unlimited. A load that
  // would exceed the cap evicts the least-recently-acquired resident
  // bundle first (outstanding references stay valid).
  size_t max_resident_venues = 0;
};

class VenueRegistry {
 public:
  // Parses the manifest at `manifest_path`. Returns nullopt (with a
  // human-readable *error) on a missing/unreadable manifest or a malformed
  // entry; snapshot files themselves are opened lazily by Acquire, so a
  // manifest may list snapshots that do not exist yet.
  static std::optional<VenueRegistry> Open(
      const std::string& manifest_path, std::string* error,
      const VenueBundle::LoadOptions& load_options = {},
      const RegistryOptions& options = {});

  // Adds or replaces `venue_id -> snapshot_path` in the manifest, creating
  // the file if needed (what `viptree_build --registry` uses). The path is
  // written verbatim, so pass it relative to the manifest for a relocatable
  // registry — ManifestRelativePath below computes exactly that.
  static io::Status UpsertManifestEntry(const std::string& manifest_path,
                                        const std::string& venue_id,
                                        const std::string& snapshot_path);

  // The snapshot path as it should be *stored* in the manifest: relative
  // to the manifest's directory when `snapshot_path` lies under it (after
  // lexically stripping "./" segments, so `./fleet/x` and `fleet/x`
  // match), otherwise absolute — mirroring how Open resolves entries.
  static std::string ManifestRelativePath(const std::string& manifest_path,
                                          const std::string& snapshot_path);

  VenueRegistry(VenueRegistry&&) = default;
  VenueRegistry& operator=(VenueRegistry&&) = default;

  // Registered venue ids, in manifest order.
  std::vector<std::string> VenueIds() const;
  bool Contains(const std::string& venue_id) const;
  size_t NumVenues() const;

  // The shared immutable bundle for `venue_id`, loading its snapshot on
  // first use (nullptr + *error on unknown id or load failure). The
  // registry keeps the bundle cached until Evict — or until the LRU
  // policy reclaims it; callers may hold the returned shared_ptr for as
  // long as they like either way. Concurrent Acquires of the same venue
  // load it once (the second waits on the entry's lock); Acquires of
  // *different* venues never wait on each other's loads.
  std::shared_ptr<const VenueBundle> Acquire(const std::string& venue_id,
                                             std::string* error = nullptr);

  // Drops the cached bundle (no-op if not resident). Outstanding
  // shared_ptrs stay valid; the snapshot is re-loaded on the next Acquire.
  void Evict(const std::string& venue_id);

  // Is this venue's bundle currently cached?
  bool IsResident(const std::string& venue_id) const;

  // The configured residency cap (0 = unlimited) — callers that cache
  // bundles of their own (engine::Service workers) use it to keep their
  // caches on the same budget.
  size_t max_resident_venues() const { return options_.max_resident_venues; }

  // Currently cached bundles / their combined logical index bytes.
  size_t NumResident() const;
  uint64_t ResidentIndexBytes() const;

 private:
  struct Entry {
    std::string snapshot_path;  // absolute, or resolved against the manifest
    // Serializes the snapshot load of *this* venue only. shared_ptr (not
    // the mutex inline) keeps Entry movable and lets Acquire hold the
    // lock across the registry-wide unlock.
    std::shared_ptr<std::mutex> load_mu = std::make_shared<std::mutex>();
    std::shared_ptr<const VenueBundle> bundle;  // null until first Acquire
    uint64_t last_use = 0;  // LRU tick of the latest Acquire hit
  };

  VenueRegistry() = default;

  // Called with mu_ held after a bundle is installed or touched: evicts
  // least-recently-used resident bundles until the cap is respected.
  void EnforceResidencyCapLocked();

  // Drops an entry's cached bundle, first returning its mapped pages to
  // the OS when the load options set drop_pages_on_evict.
  void ReleaseBundleLocked(Entry& entry);

  VenueBundle::LoadOptions load_options_;
  RegistryOptions options_;
  std::vector<std::string> ids_;  // manifest order
  // Guards `entries_`'s bundle/last_use fields and use_tick_ (the id list
  // and per-entry paths are immutable after Open). Behind a unique_ptr so
  // the registry itself stays movable. Never held across a snapshot load.
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  uint64_t use_tick_ = 0;
  std::map<std::string, Entry> entries_;
};

}  // namespace engine
}  // namespace viptree

#endif  // VIPTREE_ENGINE_VENUE_REGISTRY_H_
