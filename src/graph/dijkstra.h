// Reusable Dijkstra engine over the D2D graph.
//
// One engine instance owns distance / parent / epoch arrays sized to the
// graph, so repeated queries (index construction issues one search per
// access door; DistAw issues one per query) cost O(visited) instead of
// O(|V|) re-initialization. The engine exposes an incremental interface --
// Start() then SettleNext() -- because the DistAw kNN/range algorithms need
// to examine doors in increasing distance order and stop early.
//
// SettleNext and RunToTargets take an optional edge selection, passed per
// call, in one of two forms. An edge filter, bool(const D2DEdge&), keeps
// single edges: a search confined to a region relaxes only the edges the
// filter keeps. A run selector, void(DoorId u, PartitionId entered,
// relax), is handed the settled door and the partition it was entered
// through (ParentVia), and calls relax(span) on each run of u's edges it
// keeps (the same-leaf queries of core/distance_query.h walk a geometric
// graph by partition runs). The default keeps every edge and compiles to
// the unfiltered loop, so index construction pays nothing for it; the
// engine itself never remembers a selection.
//
// Not thread-safe; use one engine per thread.

#ifndef VIPTREE_GRAPH_DIJKSTRA_H_
#define VIPTREE_GRAPH_DIJKSTRA_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/d2d_graph.h"
#include "model/types.h"
#include "common/span.h"

namespace viptree {

// A source door with an initial distance offset (multi-source searches from
// a query point seed every door of its partition with the intra-partition
// walking distance).
struct DijkstraSource {
  DoorId door = kInvalidId;
  double offset = 0.0;
  // The partition the source counts as entered through (a point source's
  // own partition), reported as its ParentVia; kInvalidId for none.
  PartitionId via = kInvalidId;
};

struct SettledDoor {
  DoorId door = kInvalidId;
  double distance = 0.0;
};

class DijkstraEngine {
 public:
  // The graph must outlive the engine.
  explicit DijkstraEngine(const D2DGraph& graph);

  DijkstraEngine(const DijkstraEngine&) = delete;
  DijkstraEngine& operator=(const DijkstraEngine&) = delete;
  // Movable so the query engines holding Dijkstra scratch can themselves be
  // moved into owning containers (engine::VenueBundle).
  DijkstraEngine(DijkstraEngine&&) = default;

  // Begins a new search from the given sources, invalidating all state from
  // the previous search.
  void Start(Span<const DijkstraSource> sources);
  void Start(DoorId source) {
    const DijkstraSource s{source, 0.0};
    Start(Span<const DijkstraSource>(&s, 1));
  }

  // The default edge filter: every edge is relaxed.
  struct AllEdges {
    bool operator()(const D2DEdge&) const { return true; }
  };

  // Settles and returns the next-closest door, or a door with
  // id == kInvalidId when the reachable space is exhausted. Only edges
  // `keep` selects (file comment) are relaxed out of the settled door.
  template <typename Keep = AllEdges>
  SettledDoor SettleNext(Keep keep = {});

  // Runs until all doors in `targets` are settled (or the graph is
  // exhausted). Returns the number of distinct targets reached, counting
  // ones an earlier call of the same search already settled; a repeated
  // target counts once. Calling it again without Start() resumes the same
  // pop sequence, so a door's distance and parent never depend on how
  // many calls, or which target sets, it took to settle it — provided
  // every call of the search passes the same `keep`.
  template <typename Keep = AllEdges>
  size_t RunToTargets(Span<const DoorId> targets, Keep keep = {});

  // Runs until the next door to settle is farther than `radius`.
  void RunWithin(double radius);

  // Runs the search to completion.
  void RunAll();

  // Accessors for the current search. Distance is kInfDistance for doors
  // not yet settled (or unreachable).
  bool Settled(DoorId d) const {
    return epoch_mark_[d] == epoch_ && settled_[d];
  }
  double DistanceTo(DoorId d) const {
    return Settled(d) ? dist_[d] : kInfDistance;
  }
  // Predecessor door on the shortest path from the nearest source
  // (kInvalidId for source doors), and the partition the final edge
  // traverses (a source door's DijkstraSource::via).
  DoorId ParentOf(DoorId d) const { return Settled(d) ? parent_[d] : kInvalidId; }
  PartitionId ParentVia(DoorId d) const {
    return Settled(d) ? parent_via_[d] : kInvalidId;
  }

  // Reconstructs the door sequence from the source to `d` (source door
  // first, `d` last). `d` must be settled.
  std::vector<DoorId> PathTo(DoorId d) const;

  size_t NumSettledInSearch() const { return settled_count_; }
  // Edges the search has relaxed: those its edge filter kept, or those of
  // the runs its run selector passed (SearchStats::edges_relaxed).
  size_t NumRelaxedInSearch() const { return relaxed_count_; }

 private:
  void Reach(DoorId d, double dist, DoorId parent, PartitionId via);

  const D2DGraph& graph_;
  std::vector<double> dist_;
  std::vector<DoorId> parent_;
  std::vector<PartitionId> parent_via_;
  std::vector<uint8_t> settled_;
  std::vector<uint32_t> epoch_mark_;
  uint32_t epoch_ = 0;
  size_t settled_count_ = 0;
  size_t relaxed_count_ = 0;
  // RunToTargets membership: target_mark_[d] == target_epoch_ marks `d` as
  // a target of the current call.
  std::vector<uint32_t> target_mark_;
  uint32_t target_epoch_ = 0;

  // Min-heap (std::push_heap / std::pop_heap with std::greater) kept as a
  // plain vector so Start() clears it without freeing its storage. Entries
  // are distinct (a door is re-pushed only at a strictly smaller
  // distance), so the pop order is fixed by the contents alone.
  using HeapEntry = std::pair<double, DoorId>;
  std::vector<HeapEntry> heap_;
};

// Defined here, with the search loop below, so a filtered search inlines
// its filter and Reach into one loop.
inline void DijkstraEngine::Reach(DoorId d, double dist, DoorId parent,
                                  PartitionId via) {
  if (epoch_mark_[d] != epoch_) {
    epoch_mark_[d] = epoch_;
    settled_[d] = 0;
    dist_[d] = kInfDistance;
  }
  if (dist < dist_[d]) {
    dist_[d] = dist;
    parent_[d] = parent;
    parent_via_[d] = via;
    heap_.emplace_back(dist, d);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
  }
}

template <typename Keep>
SettledDoor DijkstraEngine::SettleNext(Keep keep) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (settled_[u] && epoch_mark_[u] == epoch_) continue;  // stale entry
    if (d > dist_[u]) continue;                             // stale entry
    settled_[u] = 1;
    ++settled_count_;
    const auto relax = [&](const D2DEdge& e) {
      if (epoch_mark_[e.to] == epoch_ && settled_[e.to]) return;
      Reach(e.to, d + e.weight, u, e.via);
    };
    if constexpr (std::is_invocable_r_v<bool, Keep, const D2DEdge&>) {
      size_t kept = 0;
      for (const D2DEdge& e : graph_.EdgesOf(u)) {
        if (!keep(e)) continue;
        ++kept;
        relax(e);
      }
      relaxed_count_ += kept;
    } else {
      keep(u, parent_via_[u], [&](Span<const D2DEdge> run) {
        relaxed_count_ += run.size();
        for (const D2DEdge& e : run) relax(e);
      });
    }
    return SettledDoor{u, d};
  }
  return SettledDoor{kInvalidId, kInfDistance};
}

template <typename Keep>
size_t DijkstraEngine::RunToTargets(Span<const DoorId> targets, Keep keep) {
  if (++target_epoch_ == 0) {  // wrapped: stale marks could alias
    std::fill(target_mark_.begin(), target_mark_.end(), 0);
    target_epoch_ = 1;
  }
  size_t wanted = 0;
  size_t reached = 0;
  for (DoorId t : targets) {
    if (target_mark_[t] == target_epoch_) continue;  // repeated target
    target_mark_[t] = target_epoch_;
    if (Settled(t)) {
      ++reached;
    } else {
      ++wanted;
    }
  }
  while (wanted > 0) {
    const SettledDoor s = SettleNext(keep);
    if (s.door == kInvalidId) break;
    if (target_mark_[s.door] == target_epoch_) {
      --wanted;
      ++reached;
    }
  }
  return reached;
}

// The unfiltered search is instantiated once, in dijkstra.cc: index
// construction and every other unconfined caller share that one loop.
extern template SettledDoor DijkstraEngine::SettleNext(AllEdges);
extern template size_t DijkstraEngine::RunToTargets(Span<const DoorId>,
                                                   AllEdges);

// The worker count index construction fans its per-source searches over:
// std::thread::hardware_concurrency(), or 1 when that is unknown.
unsigned ConstructionWorkers();

// Calls search(i, engine) once for every i in [0, num_sources) on
// min(workers, num_sources) threads (the calling thread alone when that is
// 1). Each thread owns one DijkstraEngine over `graph` and pulls indices
// from a shared atomic cursor, so which engine serves an index is
// unspecified; `search` must Start() its own search and write only state
// that belongs to index i. If `search` throws, no further index is handed
// out and the first exception is rethrown once every thread has joined.
void ForEachSource(const D2DGraph& graph, size_t num_sources, unsigned workers,
                   const std::function<void(size_t, DijkstraEngine&)>& search);

}  // namespace viptree

#endif  // VIPTREE_GRAPH_DIJKSTRA_H_
