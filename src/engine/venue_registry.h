// VenueRegistry: one process serving a *fleet* of venues off disk. A plain
// text manifest maps venue ids to snapshot files; Acquire(venue_id) lazily
// loads the snapshot (zero-copy mmap for format-v3 files) and hands out a
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
// Thread-safety: Acquire/NumResident are safe to call concurrently; the
// returned bundles are immutable and may be shared across threads and
// engines (engine::QueryEngine's shared-bundle constructor). Snapshot
// loads run under a *per-entry* mutex: a slow first-touch load of one
// venue never blocks Acquire of any other venue — the registry-wide lock
// only covers map lookups.
//
// Lifetime: a venue is loaded at most once and its bundle stays cached
// for the registry's lifetime, so every Acquire of a venue returns the
// same bundle and the live-object updates applied to it are never lost.
// Its mapped snapshot pages are clean and read-only, so the kernel can
// reclaim them under memory pressure without any policy here.

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

class VenueRegistry {
 public:
  // Parses the manifest at `manifest_path`. Returns nullopt (with a
  // human-readable *error) on a missing/unreadable manifest or a malformed
  // entry; snapshot files themselves are opened lazily by Acquire, so a
  // manifest may list snapshots that do not exist yet.
  static std::optional<VenueRegistry> Open(const std::string& manifest_path,
                                           std::string* error);

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
  // registry keeps the bundle for its own lifetime, so every Acquire of a
  // venue returns the same pointer. Concurrent Acquires of the same venue
  // load it once (the second waits on the entry's lock); Acquires of
  // *different* venues never wait on each other's loads.
  std::shared_ptr<const VenueBundle> Acquire(const std::string& venue_id,
                                             std::string* error = nullptr);

  // Venues loaded so far.
  size_t NumResident() const;

 private:
  struct Entry {
    std::string snapshot_path;  // absolute, or resolved against the manifest
    // Serializes the snapshot load of *this* venue only. shared_ptr (not
    // the mutex inline) keeps Entry movable and lets Acquire hold the
    // lock across the registry-wide unlock.
    std::shared_ptr<std::mutex> load_mu = std::make_shared<std::mutex>();
    std::shared_ptr<const VenueBundle> bundle;  // null until first Acquire
  };

  VenueRegistry() = default;

  std::vector<std::string> ids_;  // manifest order
  // Guards `entries_`'s bundle fields (the id list and per-entry paths are
  // immutable after Open). Behind a unique_ptr so the registry itself
  // stays movable. Never held across a snapshot load.
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::map<std::string, Entry> entries_;
};

}  // namespace engine
}  // namespace viptree

#endif  // VIPTREE_ENGINE_VENUE_REGISTRY_H_
