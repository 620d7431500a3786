// One venue's complete, self-contained serving state: the venue model, its
// D2D graph, the VIP-Tree and the object/keyword indexes, all *owned* in one
// movable unit. This replaces the historical contract where QueryEngine
// borrowed the venue and graph from the caller ("must outlive the engine") —
// a dangling-reference hazard the bundle removes for good.
//
// Bundles come from two places:
//   * VenueBundle::Build — run full index construction (the expensive path
//     the paper's Fig. 8 measures);
//   * VenueBundle::Load / TryLoad — deserialize a snapshot previously
//     written by Save, skipping construction entirely. Build once offline,
//     load the immutable artifact into every serving process.
//
// A snapshot is memory-mapped (io/mmap_arena.h) and the index buffers
// alias the mapped file — zero-copy, so standing up a venue costs
// O(resident-pages) instead of a private copy of the whole index; the
// bundle keeps the arena alive for as long as any index aliases it. Hosts
// where aliasing is impossible take the copying path: every buffer is
// deserialized into owned memory.
//
// All members live behind stable heap storage, so moving a bundle never
// invalidates the internal venue/graph/tree cross-references.

#ifndef VIPTREE_ENGINE_VENUE_BUNDLE_H_
#define VIPTREE_ENGINE_VENUE_BUNDLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/keyword_query.h"
#include "core/live_objects.h"
#include "core/object_index.h"
#include "core/vip_tree.h"
#include "graph/d2d_graph.h"
#include "io/binary_io.h"
#include "io/mmap_arena.h"
#include "io/snapshot.h"
#include "model/venue.h"

namespace viptree {
namespace engine {

struct EngineOptions {
  IPTreeOptions tree;
  DistanceQueryOptions query;
  // When non-empty, must align with the object set; enables kBooleanKnn.
  std::vector<std::vector<std::string>> object_keywords;
};

// Knobs of the snapshot load path (namespace-scope so it can appear in
// default arguments of VenueBundle's own members).
struct SnapshotLoadOptions {
  // Map the file instead of reading it into a heap buffer. Benchmarks
  // force this off to measure the read path.
  bool use_mmap = true;
  // Verify every section's CRC-32 before decoding. Costs one sequential
  // pass over the file; turn off only for snapshots whose integrity is
  // guaranteed elsewhere.
  bool verify_checksums = true;
  // Run the per-cell matrix/edge validation sweep. Off by default: the
  // checksums already reject accidental corruption, and the sweep would
  // fault in every page of the mapped index. The default therefore trusts
  // the *producer*: a crafted file with consistent CRCs but out-of-range
  // next-hop/edge cells would only be caught at query time. Set this when
  // loading snapshots from producers you do not control.
  bool deep_validate = false;
};

class VenueBundle {
 public:
  using LoadOptions = SnapshotLoadOptions;

  // Full index construction over a venue the bundle takes ownership of.
  // The first overload derives the D2D graph from the venue geometry; the
  // second adopts an explicitly weighted graph (imported venues, the
  // paper's running example).
  static VenueBundle Build(Venue venue, std::vector<IndoorPoint> objects,
                           EngineOptions options = {});
  static VenueBundle Build(Venue venue, D2DGraph graph,
                           std::vector<IndoorPoint> objects,
                           EngineOptions options = {});

  // Like Build, but deep-copies `venue` and `graph` into the bundle — for
  // callers that keep one venue and stand up several engines over it (the
  // benchmark harness, the baseline comparison engines).
  static VenueBundle BuildFrom(const Venue& venue, const D2DGraph& graph,
                               std::vector<IndoorPoint> objects,
                               EngineOptions options = {});

  // Snapshot persistence (io/snapshot.h format). Save serializes the
  // *live* object set: after updates, removed objects are dropped and the
  // survivors get dense renumbered ids, so the on-disk format never sees
  // overlays or tombstones (see LiveObjectIndex::PackedParts). Save
  // reports failures as a Status; TryLoad reports them as nullopt plus a
  // human-readable message in *error (truncation, corruption, version
  // skew, structural inconsistency); Load aborts with that message (for
  // callers who treat the snapshot as trusted infrastructure).
  io::Status Save(const std::string& path) const;
  static std::optional<VenueBundle> TryLoad(const std::string& path,
                                            std::string* error,
                                            const LoadOptions& options = {});
  static VenueBundle Load(const std::string& path,
                          const LoadOptions& options = {});

  VenueBundle(VenueBundle&&) = default;
  VenueBundle& operator=(VenueBundle&&) = default;

  const Venue& venue() const { return *venue_; }
  const D2DGraph& graph() const { return *graph_; }
  const VIPTree& tree() const { return *tree_; }
  const DistanceQueryOptions& query_options() const { return query_options_; }

  // The live (epoch-published) object store. Returned non-const from a
  // const bundle on purpose: LiveObjectIndex is internally synchronized,
  // so updates are legal on shared registry bundles — that is the whole
  // serving path for object updates.
  LiveObjectIndex& live_objects() const { return *live_; }

  // Inspection views of the *current* epoch (the packed base index and
  // its keyword index). Valid until the next publish; query paths must
  // pin a snapshot via live_objects().Acquire() instead.
  const ObjectIndex& objects() const { return live_->current_base(); }
  bool has_keywords() const { return live_->has_keywords(); }
  const KeywordIndex& keyword_index() const {
    return live_->current_keywords();
  }

  // True when the indexes alias a mapped (or heap-read) snapshot arena
  // instead of owning private copies — i.e. the zero-copy load path ran.
  bool zero_copy() const { return arena_ != nullptr; }

  // Replaces the object set (and keyword lists) without rebuilding the
  // tree, publishing one new epoch. Safe to call concurrently with
  // queries: in-flight readers keep answering against the snapshot they
  // pinned; later queries see the new set.
  void SetObjects(std::vector<IndoorPoint> objects,
                  std::vector<std::vector<std::string>> object_keywords = {});

  // Combined logical footprint of the owned indexes (tree + objects +
  // keywords), excluding the venue/graph source data. For a zero-copy
  // bundle most of these bytes are file-backed arena pages, resident only
  // once touched.
  uint64_t IndexMemoryBytes() const;

 private:
  VenueBundle() = default;

  static VenueBundle Assemble(std::unique_ptr<Venue> venue,
                              std::unique_ptr<D2DGraph> graph,
                              std::vector<IndoorPoint> objects,
                              EngineOptions options);

  // The snapshot arena the indexes may alias. Declared first so it is
  // destroyed last — after every index that may hold views into it.
  std::shared_ptr<io::MmapArena> arena_;
  std::unique_ptr<Venue> venue_;
  std::unique_ptr<D2DGraph> graph_;
  std::unique_ptr<VIPTree> tree_;
  std::unique_ptr<LiveObjectIndex> live_;
  DistanceQueryOptions query_options_;
};

}  // namespace engine
}  // namespace viptree

#endif  // VIPTREE_ENGINE_VENUE_BUNDLE_H_
