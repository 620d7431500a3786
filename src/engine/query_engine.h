// The serving layer over the paper's indexes: a façade that owns one
// venue's complete serving state (an engine::VenueBundle — venue, D2D
// graph, VIP-Tree, object/keyword indexes) and answers every query type of
// §3 (shortest distance, shortest path, kNN, range, boolean spatial
// keyword) through a single typed Query/Result API.
//
// Ownership model. The engine owns its bundle outright: there is no
// "venue must outlive the engine" contract anymore. Engines are built from
// a moved-in venue, adopted from a pre-built bundle, or — the production
// path — loaded from a snapshot written by Save() (build the index once
// offline, load the immutable artifact into each serving process).
//
// Concurrency model. The venue/graph/tree indexes are immutable after
// construction; the object set is *live* (core/live_objects.h): writers
// publish immutable ObjectSnapshots through an RCU-style shared_ptr swap,
// and every worker pins the current snapshot per query, so SetObjects /
// ApplyObjectDelta run genuinely concurrent with queries — no overlap
// CHECKs, no reader locks. Each query observes exactly one epoch: either
// entirely the old object set or entirely the new one, never a mix. All
// remaining per-query mutable state lives in small per-thread Worker
// bundles (the core query engines with their Dijkstra scratch — see the
// thread-safety contract in core/distance_query.h). Concurrency is the
// serving front-end's job (engine/service.h): each Service worker builds
// its own QueryEngine over the shared bundle.
//
// Every Result carries its own latency and visited-node counters, the
// FESTIval-style "uniform query façade that also collects statistics";
// Service aggregates them into its ServiceStats.

#ifndef VIPTREE_ENGINE_QUERY_ENGINE_H_
#define VIPTREE_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/span.h"
#include "core/distance_cache.h"
#include "core/keyword_query.h"
#include "engine/exec_plan.h"
#include "core/knn_query.h"
#include "core/live_objects.h"
#include "core/object_index.h"
#include "core/path_query.h"
#include "core/vip_tree.h"
#include "engine/venue_bundle.h"

namespace viptree {
namespace engine {

enum class QueryType : uint8_t {
  kDistance,    // §3.1: shortest indoor distance s -> t
  kPath,        // §3.2/§3.3: distance plus full door sequence
  kKnn,         // §3.4 Algorithm 5: k nearest indexed objects
  kRange,       // §3.4: all objects within a network radius
  kBooleanKnn,  // §1.3: k nearest objects holding all query keywords
};

const char* QueryTypeName(QueryType type);

// One typed query. Build through the factory helpers; unused fields keep
// their defaults and are ignored by the engine.
struct Query {
  QueryType type = QueryType::kDistance;
  IndoorPoint source;
  IndoorPoint target;                 // kDistance / kPath
  size_t k = 1;                       // kKnn / kBooleanKnn
  double radius = 0.0;                // kRange
  std::vector<std::string> keywords;  // kBooleanKnn

  static Query Distance(const IndoorPoint& s, const IndoorPoint& t);
  static Query Path(const IndoorPoint& s, const IndoorPoint& t);
  static Query Knn(const IndoorPoint& q, size_t k);
  static Query Range(const IndoorPoint& q, double radius);
  static Query BooleanKnn(const IndoorPoint& q, size_t k,
                          std::vector<std::string> keywords);
};

struct Result {
  QueryType type = QueryType::kDistance;
  // kDistance / kPath: the shortest network distance (kInfDistance when
  // unreachable). Unused for object queries.
  double distance = kInfDistance;
  // kPath only: the door sequence (empty when the route stays inside one
  // partition).
  std::vector<DoorId> doors;
  // kKnn / kRange / kBooleanKnn: matching objects, ascending by distance.
  std::vector<ObjectResult> objects;

  // Per-query statistics.
  double latency_micros = 0.0;
  // Tree nodes examined: node matrices consulted for distance/path queries
  // (1 same-leaf, 3 cross-leaf: source + target extended matrices plus the
  // LCA), heap pops of Algorithm 5 for object queries.
  size_t visited_nodes = 0;
};

// Owns the full index stack for one venue (through a VenueBundle).
class QueryEngine {
 public:
  // Adopts a pre-built or snapshot-loaded bundle.
  explicit QueryEngine(VenueBundle bundle);

  // Serves over a *shared* bundle — the VenueRegistry path, where one
  // process holds many venues and several engines serve the same bundle
  // concurrently. Queries read pinned snapshots; object updates through
  // any engine (SetObjects / ApplyObjectDelta) publish a new epoch that
  // all engines over the bundle observe on their next query.
  explicit QueryEngine(std::shared_ptr<const VenueBundle> bundle);

  // Builds the bundle here, taking ownership of the venue (the D2D graph
  // is derived from the venue geometry).
  QueryEngine(Venue venue, std::vector<IndoorPoint> objects,
              EngineOptions options = {});

  // Builds the bundle from a venue/graph the caller keeps: both are
  // deep-copied into the engine (VenueBundle::BuildFrom), so the engine
  // stays self-contained — the caller's objects may die first.
  QueryEngine(const Venue& venue, const D2DGraph& graph,
              std::vector<IndoorPoint> objects, EngineOptions options = {});

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  const VenueBundle& bundle() const { return *bundle_; }
  const Venue& venue() const { return bundle_->venue(); }
  const D2DGraph& graph() const { return bundle_->graph(); }
  const VIPTree& tree() const { return bundle_->tree(); }
  const ObjectIndex& objects() const { return bundle_->objects(); }
  bool has_keywords() const { return bundle_->has_keywords(); }

  // Snapshot persistence: Save writes the whole bundle in the io/snapshot.h
  // format; Load/TryLoad stand a serving engine up from such a file without
  // re-running index construction. Load aborts with the decode error
  // message; TryLoad reports it to the caller instead.
  io::Status Save(const std::string& path) const;
  static QueryEngine Load(const std::string& path);
  static std::unique_ptr<QueryEngine> TryLoad(const std::string& path,
                                              std::string* error);

  // Replaces the object set (and keyword lists) without rebuilding the
  // tree. Publishes one new epoch through the bundle's live object store;
  // safe to call while queries (here or through other engines over the
  // same bundle, e.g. a Service's workers) are in flight — in-flight
  // queries keep the snapshot they pinned, later queries see the new set.
  void SetObjects(std::vector<IndoorPoint> objects,
                  std::vector<std::vector<std::string>> object_keywords = {});

  // Applies one object delta (moves / adds / removes) and publishes one
  // new epoch; small churn patches the hot overlay instead of rebuilding
  // the packed index (core/live_objects.h). Returns an error message —
  // and publishes nothing — when the delta is invalid (unknown ids,
  // out-of-range partitions, double-removes, …). Concurrent callers are
  // serialized internally; queries never block.
  std::optional<std::string> ApplyObjectDelta(const ObjectDelta& delta);

  // Combined footprint of the owned indexes.
  uint64_t IndexMemoryBytes() const;

  // Cross-request distance cache (core/distance_cache.h), off (nullptr)
  // at construction. EnableDistanceCache creates a private per-engine
  // cache, resolving a 0 capacity from the venue's door count;
  // SetDistanceCache shares an existing one (e.g. one cache per venue
  // across many engines — engine::Service does this). Both rebuild the
  // resident worker, so call them between queries, not concurrently with
  // Run.
  void EnableDistanceCache(const DistanceCacheOptions& options = {});
  void SetDistanceCache(std::shared_ptr<DistanceCache> cache);
  const std::shared_ptr<DistanceCache>& distance_cache() const {
    return cache_;
  }

  // Answers one query on the engine's resident worker. Const but not
  // re-entrant: serialize Run/RunSequential calls, or serve through
  // engine::Service (one engine per worker) for concurrency.
  Result Run(const Query& query) const;

  // The batch on the calling thread, in order (the single-threaded
  // reference Service answers are compared against).
  std::vector<Result> RunSequential(Span<const Query> queries) const;

  // Answers one group of queries on the resident worker through the
  // execution planner (engine/exec_plan.h): kNN queries sharing a source
  // point reuse one root ascent; everything else runs exactly as Run
  // would. results[i] answers queries[i], bit-identical to
  // RunSequential. Const but not re-entrant, like Run. `stats`, when
  // non-null, has this group's planner accounting merged in.
  std::vector<Result> RunCoalesced(Span<const Query> queries,
                                   PlanStats* stats = nullptr) const;

 private:
  struct Worker;

  Result Execute(const Query& query, Worker& worker) const;
  void RebuildWorker();

  // The served state; every read goes through here. Object mutations go
  // through bundle_->live_objects(), which is internally synchronized, so
  // no separate mutable alias is needed.
  std::shared_ptr<const VenueBundle> bundle_;
  // Shared, thread-safe memoization attached to the resident worker. Never
  // null-checked on the hot path — the core engines handle nullptr
  // themselves.
  std::shared_ptr<DistanceCache> cache_;
  // Resident worker backing Run / RunSequential / RunCoalesced. Run re-pins
  // the worker's object snapshot per query, which is why Execute takes it
  // non-const; Run stays const-but-not-reentrant.
  std::unique_ptr<Worker> main_worker_;
};

}  // namespace engine
}  // namespace viptree

#endif  // VIPTREE_ENGINE_QUERY_ENGINE_H_
