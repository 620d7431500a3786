#include "engine/venue_bundle.h"

#include <utility>

#include "common/check.h"
#include "io/snapshot.h"

namespace viptree {
namespace engine {

VenueBundle VenueBundle::Assemble(std::unique_ptr<Venue> venue,
                                  std::unique_ptr<D2DGraph> graph,
                                  std::vector<IndoorPoint> objects,
                                  EngineOptions options) {
  VenueBundle bundle;
  bundle.venue_ = std::move(venue);
  bundle.graph_ = std::move(graph);
  bundle.query_options_ = options.query;
  bundle.tree_ = std::make_unique<VIPTree>(
      VIPTree::Build(*bundle.venue_, *bundle.graph_, options.tree));
  bundle.live_ = std::make_unique<LiveObjectIndex>(
      bundle.tree_->base(), std::move(objects),
      std::move(options.object_keywords));
  if (options.cache.enabled) {
    bundle.EnableDistanceCache(options.cache);
  }
  return bundle;
}

void VenueBundle::EnableDistanceCache(const DistanceCacheOptions& options) {
  DistanceCacheOptions resolved = options;
  if (resolved.capacity == 0) {
    resolved.capacity = AdaptiveCacheCapacity(venue_->NumDoors());
  }
  cache_ = std::make_shared<DistanceCache>(resolved);
}

VenueBundle VenueBundle::Build(Venue venue, std::vector<IndoorPoint> objects,
                               EngineOptions options) {
  auto owned_venue = std::make_unique<Venue>(std::move(venue));
  auto graph = std::make_unique<D2DGraph>(*owned_venue);
  return Assemble(std::move(owned_venue), std::move(graph),
                  std::move(objects), std::move(options));
}

VenueBundle VenueBundle::Build(Venue venue, D2DGraph graph,
                               std::vector<IndoorPoint> objects,
                               EngineOptions options) {
  return Assemble(std::make_unique<Venue>(std::move(venue)),
                  std::make_unique<D2DGraph>(std::move(graph)),
                  std::move(objects), std::move(options));
}

VenueBundle VenueBundle::BuildFrom(const Venue& venue, const D2DGraph& graph,
                                   std::vector<IndoorPoint> objects,
                                   EngineOptions options) {
  return Assemble(std::make_unique<Venue>(venue.Clone()),
                  std::make_unique<D2DGraph>(graph.Clone()),
                  std::move(objects), std::move(options));
}

void VenueBundle::SetObjects(
    std::vector<IndoorPoint> objects,
    std::vector<std::vector<std::string>> object_keywords) {
  live_->SetObjects(std::move(objects), std::move(object_keywords));
}

uint64_t VenueBundle::IndexMemoryBytes() const {
  return tree_->MemoryBytes() + live_->MemoryBytes();
}

io::Status VenueBundle::Save(const std::string& path) const {
  io::Snapshot snapshot;
  snapshot.venue = venue_->ToParts();
  snapshot.graph = graph_->ToParts();
  snapshot.tree = tree_->base().ToParts();
  snapshot.vip = tree_->ToParts();
  LiveObjectIndex::PackedState packed = live_->PackedParts();
  snapshot.objects = std::move(packed.objects);
  if (packed.keywords.has_value()) {
    snapshot.keywords = std::move(*packed.keywords);
  }
  snapshot.query_options = query_options_;
  return io::WriteSnapshotFile(path, snapshot);
}

std::optional<VenueBundle> VenueBundle::TryLoad(const std::string& path,
                                                std::string* error,
                                                const LoadOptions& options) {
  auto fail = [error](std::string message) -> std::optional<VenueBundle> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  // Map (or read) the file into an arena, then decode. The decoder hands
  // out views into the arena (zero-copy) and the bundle keeps the arena
  // alive; on a host where aliasing is impossible it decodes into owned
  // buffers and the arena is dropped at the end of this function.
  auto arena = std::make_shared<io::MmapArena>();
  {
    const io::Status status =
        io::MmapArena::Map(path, arena.get(), options.use_mmap);
    if (!status.ok()) return fail(status.error);
  }
  io::SnapshotReadOptions read_options;
  read_options.verify_checksums = options.verify_checksums;
  io::Snapshot snapshot;
  {
    const io::Status status =
        io::DecodeSnapshot(arena->bytes(), &snapshot, read_options);
    if (!status.ok()) return fail(status.error);
  }

  // The cheap structural level runs by default (deep_validate opts into
  // the full sweep) — the CRCs already reject corruption, and the per-cell
  // sweep would fault in every page of the mapped index.
  const IPTree::ValidationLevel level =
      options.deep_validate ? IPTree::ValidationLevel::kFull
                            : IPTree::ValidationLevel::kStructure;

  // Structural validation of every layer before assembly, bottom-up: a
  // snapshot that fails must surface as an error the caller can report
  // (the FromParts factories would abort instead), and each successful
  // check feeds the FromValidatedParts fast path so nothing is validated
  // twice on the serving-process startup path.
  if (auto e = Venue::ValidateParts(snapshot.venue)) {
    return fail("invalid snapshot: " + *e);
  }
  if (auto e = D2DGraph::ValidateParts(snapshot.graph, level)) {
    return fail("invalid snapshot: " + *e);
  }

  VenueBundle bundle;
  bundle.venue_ = std::make_unique<Venue>(
      Venue::FromValidatedParts(std::move(snapshot.venue)));
  bundle.graph_ = std::make_unique<D2DGraph>(
      D2DGraph::FromValidatedParts(std::move(snapshot.graph)));
  if (bundle.graph_->NumVertices() != bundle.venue_->NumDoors()) {
    return fail("invalid snapshot: graph has " +
                std::to_string(bundle.graph_->NumVertices()) +
                " vertices for " +
                std::to_string(bundle.venue_->NumDoors()) + " doors");
  }

  if (auto e = IPTree::ValidateParts(*bundle.venue_, snapshot.tree, level)) {
    return fail("invalid snapshot: " + *e);
  }
  IPTree base = IPTree::FromValidatedParts(*bundle.venue_, *bundle.graph_,
                                           std::move(snapshot.tree));
  if (auto e = VIPTree::ValidateParts(base, snapshot.vip, level)) {
    return fail("invalid snapshot: " + *e);
  }
  bundle.tree_ = std::make_unique<VIPTree>(
      VIPTree::FromValidatedParts(std::move(base), std::move(snapshot.vip)));

  if (auto e = ObjectIndex::ValidateParts(bundle.tree_->base(),
                                          snapshot.objects)) {
    return fail("invalid snapshot: " + *e);
  }
  auto object_base =
      std::make_shared<const ObjectIndex>(ObjectIndex::FromValidatedParts(
          bundle.tree_->base(), std::move(snapshot.objects)));

  std::shared_ptr<const KeywordIndex> keywords;
  if (snapshot.keywords.has_value()) {
    if (auto e = KeywordIndex::ValidateParts(bundle.tree_->base(),
                                             *object_base,
                                             *snapshot.keywords)) {
      return fail("invalid snapshot: " + *e);
    }
    keywords =
        std::make_shared<const KeywordIndex>(KeywordIndex::FromValidatedParts(
            bundle.tree_->base(), *object_base,
            std::move(*snapshot.keywords)));
  }
  // The loaded (possibly arena-aliased) pair becomes epoch 1 of the live
  // object store; updates build later epochs aside in owned memory.
  bundle.live_ = std::make_unique<LiveObjectIndex>(
      bundle.tree_->base(), std::move(object_base), std::move(keywords));
  bundle.query_options_ = snapshot.query_options;
  // A zero-copy decode left views into the arena inside the indexes; the
  // bundle must then keep the arena alive. A copying decode (exotic host)
  // owns everything, so the arena can be released here.
  if (snapshot.aliased) bundle.arena_ = std::move(arena);
  return bundle;
}

VenueBundle VenueBundle::Load(const std::string& path,
                              const LoadOptions& options) {
  std::string error;
  std::optional<VenueBundle> bundle = TryLoad(path, &error, options);
  VIPTREE_CHECK_MSG(bundle.has_value(), error.c_str());
  return std::move(*bundle);
}

}  // namespace engine
}  // namespace viptree
