#include "engine/query_engine.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "engine/exec_plan.h"

namespace viptree {
namespace engine {

namespace {

// Node matrices a VIP distance/path query consults (§3.1): the source and
// target extended matrices plus the LCA matrix joining them, or just the
// shared leaf for a same-leaf query.
size_t MatricesConsulted(const IPTree& tree, PartitionId s, PartitionId t) {
  return tree.LeafOfPartition(s) == tree.LeafOfPartition(t) ? 1 : 3;
}

}  // namespace

const char* QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kDistance:
      return "distance";
    case QueryType::kPath:
      return "path";
    case QueryType::kKnn:
      return "knn";
    case QueryType::kRange:
      return "range";
    case QueryType::kBooleanKnn:
      return "boolean-knn";
  }
  return "?";
}

Query Query::Distance(const IndoorPoint& s, const IndoorPoint& t) {
  Query q;
  q.type = QueryType::kDistance;
  q.source = s;
  q.target = t;
  return q;
}

Query Query::Path(const IndoorPoint& s, const IndoorPoint& t) {
  Query q;
  q.type = QueryType::kPath;
  q.source = s;
  q.target = t;
  return q;
}

Query Query::Knn(const IndoorPoint& q_point, size_t k) {
  Query q;
  q.type = QueryType::kKnn;
  q.source = q_point;
  q.k = k;
  return q;
}

Query Query::Range(const IndoorPoint& q_point, double radius) {
  Query q;
  q.type = QueryType::kRange;
  q.source = q_point;
  q.radius = radius;
  return q;
}

Query Query::BooleanKnn(const IndoorPoint& q_point, size_t k,
                        std::vector<std::string> keywords) {
  Query q;
  q.type = QueryType::kBooleanKnn;
  q.source = q_point;
  q.k = k;
  q.keywords = std::move(keywords);
  return q;
}

// The per-thread bundle of core query engines. Shares the engine's
// immutable indexes (read-only) plus, for object queries, the snapshot of
// the live object set pinned on the last Refresh; owns all the mutable
// Dijkstra scratch.
struct QueryEngine::Worker {
  VIPDistanceQuery distance;
  VIPPathQuery path;
  // The pinned epoch's reader, built on the first object query and
  // re-pinned (scratch kept) when a publish happened since the last one.
  std::unique_ptr<SnapshotQuery> objects;

  explicit Worker(const QueryEngine& engine)
      : distance(engine.tree(), engine.bundle_->query_options(),
                 engine.cache_.get()),
        path(engine.tree(), engine.bundle_->query_options(),
             engine.cache_.get()) {}

  // Pins the current object snapshot: one shared_ptr atomic load per
  // query; an epoch change swaps the snapshot and allocates nothing.
  SnapshotQuery& Refresh(const QueryEngine& engine) {
    std::shared_ptr<const ObjectSnapshot> current =
        engine.bundle_->live_objects().Acquire();
    if (objects == nullptr) {
      objects = std::make_unique<SnapshotQuery>(
          engine.tree().base(), std::move(current),
          engine.bundle_->query_options(), engine.cache_.get());
    } else if (objects->snapshot_ptr() != current) {
      objects->Repin(std::move(current));
    }
    return *objects;
  }
};

QueryEngine::QueryEngine(VenueBundle bundle)
    : bundle_(std::make_shared<VenueBundle>(std::move(bundle))) {
  RebuildWorker();
}

QueryEngine::QueryEngine(std::shared_ptr<const VenueBundle> bundle)
    : bundle_(std::move(bundle)) {
  VIPTREE_CHECK_MSG(bundle_ != nullptr,
                    "QueryEngine constructed over a null bundle");
  RebuildWorker();
}

QueryEngine::QueryEngine(Venue venue, std::vector<IndoorPoint> objects,
                         EngineOptions options)
    : QueryEngine(VenueBundle::Build(std::move(venue), std::move(objects),
                                     std::move(options))) {}

QueryEngine::QueryEngine(const Venue& venue, const D2DGraph& graph,
                         std::vector<IndoorPoint> objects,
                         EngineOptions options)
    : QueryEngine(VenueBundle::BuildFrom(venue, graph, std::move(objects),
                                         std::move(options))) {}

QueryEngine::~QueryEngine() = default;

io::Status QueryEngine::Save(const std::string& path) const {
  return bundle_->Save(path);
}

QueryEngine QueryEngine::Load(const std::string& path) {
  return QueryEngine(VenueBundle::Load(path));
}

std::unique_ptr<QueryEngine> QueryEngine::TryLoad(const std::string& path,
                                                  std::string* error) {
  std::optional<VenueBundle> bundle = VenueBundle::TryLoad(path, error);
  if (!bundle.has_value()) return nullptr;
  return std::unique_ptr<QueryEngine>(new QueryEngine(std::move(*bundle)));
}

void QueryEngine::SetObjects(
    std::vector<IndoorPoint> objects,
    std::vector<std::vector<std::string>> object_keywords) {
  bundle_->live_objects().SetObjects(std::move(objects),
                                     std::move(object_keywords));
}

std::optional<std::string> QueryEngine::ApplyObjectDelta(
    const ObjectDelta& delta) {
  return bundle_->live_objects().ApplyDelta(delta);
}

void QueryEngine::RebuildWorker() {
  main_worker_ = std::make_unique<Worker>(*this);
}

void QueryEngine::EnableDistanceCache(const DistanceCacheOptions& options) {
  DistanceCacheOptions resolved = options;
  if (resolved.capacity == 0) {
    resolved.capacity = AdaptiveCacheCapacity(venue().NumDoors());
  }
  SetDistanceCache(std::make_shared<DistanceCache>(resolved));
}

void QueryEngine::SetDistanceCache(std::shared_ptr<DistanceCache> cache) {
  cache_ = std::move(cache);
  // The resident worker's core engines captured the old raw pointer.
  RebuildWorker();
}

uint64_t QueryEngine::IndexMemoryBytes() const {
  return bundle_->IndexMemoryBytes();
}

Result QueryEngine::Execute(const Query& query, Worker& worker) const {
  Result result;
  result.type = query.type;
  SearchStats search_stats;
  const Timer timer;
  switch (query.type) {
    case QueryType::kDistance:
      result.distance = worker.distance.Distance(query.source, query.target);
      break;
    case QueryType::kPath: {
      IndoorPath path = worker.path.Path(query.source, query.target);
      result.distance = path.distance;
      result.doors = std::move(path.doors);
      break;
    }
    case QueryType::kKnn:
      result.objects =
          worker.Refresh(*this).Knn(query.source, query.k, &search_stats);
      break;
    case QueryType::kRange:
      result.objects = worker.Refresh(*this).Range(query.source, query.radius,
                                                   &search_stats);
      break;
    case QueryType::kBooleanKnn:
      // Empty (not fatal) on a snapshot without keywords: the serving
      // layer rejects such requests up front, and the epoch the worker
      // pins here may legitimately differ from the epoch it checked.
      result.objects = worker.Refresh(*this).BooleanKnn(
          query.source, query.k, query.keywords, &search_stats);
      break;
  }
  result.latency_micros = timer.ElapsedMicros();
  // Bookkeeping stays outside the timed region.
  if (query.type == QueryType::kDistance || query.type == QueryType::kPath) {
    result.visited_nodes = MatricesConsulted(
        tree().base(), query.source.partition, query.target.partition);
  } else {
    result.visited_nodes = search_stats.nodes_visited;
  }
  return result;
}

Result QueryEngine::Run(const Query& query) const {
  return Execute(query, *main_worker_);
}

std::vector<Result> QueryEngine::RunSequential(
    Span<const Query> queries) const {
  std::vector<Result> results;
  results.reserve(queries.size());
  for (const Query& q : queries) results.push_back(Run(q));
  return results;
}

std::vector<Result> QueryEngine::RunCoalesced(Span<const Query> queries,
                                              PlanStats* stats) const {
  std::vector<Result> results(queries.size());
  if (queries.empty()) return results;
  Worker& worker = *main_worker_;
  // A singleton is never a group: answer it exactly as Run does, without
  // the planner's bookkeeping.
  if (queries.size() == 1) {
    results[0] = Execute(queries[0], worker);
    return results;
  }
  // One pinned snapshot serves every grouped kNN query; the fallback path
  // re-pins per query like Run does (same epoch unless a concurrent
  // publish lands mid-group, which per-query execution is equally exposed
  // to).
  const SnapshotQuery* objects = nullptr;
  for (const Query& q : queries) {
    if (q.type == QueryType::kKnn) {
      objects = &worker.Refresh(*this);
      break;
    }
  }
  const auto fallback = [&](const Query& q) { return Execute(q, worker); };
  const PlanStats plan =
      ExecutePlan(queries, objects, fallback, results);
  if (stats != nullptr) stats->Merge(plan);
  return results;
}

}  // namespace engine
}  // namespace viptree
