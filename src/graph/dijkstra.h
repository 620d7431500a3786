// Reusable Dijkstra engine over the D2D graph.
//
// One engine instance owns distance / parent / epoch arrays sized to the
// graph, so repeated queries (index construction issues one search per
// access door; DistAw issues one per query) cost O(visited) instead of
// O(|V|) re-initialization. The engine exposes an incremental interface --
// Start() then SettleNext() -- because the DistAw kNN/range algorithms need
// to examine doors in increasing distance order and stop early.
//
// Not thread-safe; use one engine per thread.

#ifndef VIPTREE_GRAPH_DIJKSTRA_H_
#define VIPTREE_GRAPH_DIJKSTRA_H_

#include <cstdint>
#include <functional>
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

  // Settles and returns the next-closest door, or a door with
  // id == kInvalidId when the reachable space is exhausted.
  SettledDoor SettleNext();

  // Runs until all doors in `targets` are settled (or the graph is
  // exhausted). Returns the number of distinct targets reached, counting
  // ones an earlier call of the same search already settled; a repeated
  // target counts once. Calling it again without Start() resumes the same
  // pop sequence, so a door's distance and parent never depend on how
  // many calls, or which target sets, it took to settle it.
  size_t RunToTargets(Span<const DoorId> targets);

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
  // traverses.
  DoorId ParentOf(DoorId d) const { return Settled(d) ? parent_[d] : kInvalidId; }
  PartitionId ParentVia(DoorId d) const {
    return Settled(d) ? parent_via_[d] : kInvalidId;
  }

  // Reconstructs the door sequence from the source to `d` (source door
  // first, `d` last). `d` must be settled.
  std::vector<DoorId> PathTo(DoorId d) const;

  size_t NumSettledInSearch() const { return settled_count_; }

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
