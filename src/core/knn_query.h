// Part of the reproduction of "VIP-Tree: An Effective Index for Indoor
// Spatial Queries" (Shao, Cheema, Taniar, Lu — PVLDB 10(4), 2016); all
// section/algorithm references below point into that paper.
//
// k-nearest-neighbour queries over indexed indoor objects (Algorithm 5):
// best-first search over the tree with the mindist computation of
// Lemmas 8 and 9 (distances to a node's access doors derived from its
// parent's or sibling's, each in O(rho^2)).
//
// The same engine serves IP-Tree and VIP-Tree: the paper observes both
// perform equally for kNN because the Lemma 8/9 optimization makes the
// mindist cost independent of the materialization (§3.4, §4.3.3).

#ifndef VIPTREE_CORE_KNN_QUERY_H_
#define VIPTREE_CORE_KNN_QUERY_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/span.h"
#include "core/distance_query.h"
#include "core/object_index.h"

namespace viptree {

struct ObjectResult {
  ObjectId object = kInvalidId;
  double distance = kInfDistance;
};

// An object held beside the packed ObjectIndex (the live-object overlay,
// core/live_objects.h) that the search scores exactly as it scores a packed
// object of the same leaf. Searches take these as a span ordered by
// (leaf_dfs, id), so the entries of one subtree are a contiguous run.
struct OverlayObject {
  ObjectId id = kInvalidId;
  IndoorPoint point;
  uint32_t leaf_dfs = 0;  // TreeNode::leaf_begin of the object's leaf
  // One cell per access door of that leaf (ObjectIndex::FillDoorRow).
  std::vector<double> row;
};

// Per-query work counters of the branch-and-bound search, filled when the
// caller passes a sink (batch engines aggregate them across a workload).
struct SearchStats {
  size_t nodes_visited = 0;       // heap pops (tree nodes examined)
  size_t leaves_scanned = 0;      // leaves whose objects were scored
  size_t objects_considered = 0;  // candidate objects offered to the heap
  size_t doors_settled = 0;       // doors the search of q's own leaf settled
  size_t edges_relaxed = 0;       // edges that search relaxed
};

class KnnQuery {
 public:
  // `cache` is forwarded to the internal IPDistanceQuery; no kNN search
  // reads it (see IPDistanceQuery).
  KnnQuery(const IPTree& tree, const ObjectIndex& objects,
           const DistanceQueryOptions& options = {},
           DistanceCache* cache = nullptr);

  // Points the engine at another object index over the same tree, keeping
  // every piece of Dijkstra and bound scratch (the live-object reader
  // re-pins a newer snapshot through this).
  void Rebind(const ObjectIndex& objects) { objects_ = &objects; }

  // The k nearest objects to q, ascending by (distance, id).
  std::vector<ObjectResult> Knn(const IndoorPoint& q, size_t k,
                                SearchStats* stats = nullptr) const;

  // Line 2 of Algorithm 5 on its own: the root ascent from q, reusable
  // across several searches for the same query point (the execution
  // planner computes it once per distinct source in a coalesced group).
  // The ascent is a deterministic function of q alone — k never enters
  // it — so Knn(q, k) == KnnWithAscent(q, k, ComputeAscent(q)) bit-for-bit.
  AscentDistances ComputeAscent(const IndoorPoint& q) const;

  // Knn with the root ascent precomputed via ComputeAscent(q).
  std::vector<ObjectResult> KnnWithAscent(const IndoorPoint& q, size_t k,
                                          const AscentDistances& ascent,
                                          SearchStats* stats = nullptr) const {
    return Search(q, k, kInfDistance, nullptr, {}, stats, &ascent);
  }

  // All objects within `radius` of q, ascending by (distance, id): the
  // range query of §3.4.
  std::vector<ObjectResult> WithinRange(const IndoorPoint& q, double radius,
                                        SearchStats* stats = nullptr) const;

  // Optional pruning hooks for derived query types (e.g. spatial keyword
  // queries, §1.3): subtrees where `node` returns false are skipped; packed
  // objects where `object` returns false and overlay objects where
  // `overlay` returns false are not reported.
  struct Filters {
    std::function<bool(NodeId)> node;
    std::function<bool(ObjectId)> object;
    std::function<bool(ObjectId)> overlay;
  };

  // The searches below also score `overlay` (ordered by (leaf_dfs, id)) as
  // if its objects were packed: an overlay object is read only when the
  // search scans its leaf. Plain ObjectIndex callers pass none.

  // The k nearest objects passing the filters.
  std::vector<ObjectResult> KnnFiltered(
      const IndoorPoint& q, size_t k, const Filters& filters,
      SearchStats* stats = nullptr,
      Span<const OverlayObject> overlay = {}) const {
    return Search(q, k, kInfDistance, &filters, overlay, stats);
  }

  // KnnFiltered with the root ascent precomputed (see KnnWithAscent); the
  // live-object snapshot reader routes coalesced kNN groups through this.
  std::vector<ObjectResult> KnnFilteredWithAscent(
      const IndoorPoint& q, size_t k, const Filters& filters,
      const AscentDistances& ascent, SearchStats* stats = nullptr,
      Span<const OverlayObject> overlay = {}) const {
    return Search(q, k, kInfDistance, &filters, overlay, stats, &ascent);
  }

  // All objects within `radius` passing the filters (the range analogue of
  // KnnFiltered; the live-object snapshot reader excludes overlay and
  // tombstoned ids through this).
  std::vector<ObjectResult> RangeFiltered(
      const IndoorPoint& q, double radius, const Filters& filters,
      SearchStats* stats = nullptr,
      Span<const OverlayObject> overlay = {}) const {
    return Search(q, std::numeric_limits<size_t>::max(), radius, &filters,
                  overlay, stats);
  }

 private:
  // Shared branch-and-bound: best-first traversal collecting either the k
  // nearest or everything within a fixed radius. `precomputed`, when set,
  // replaces the line-2 root ascent (must be ComputeAscent(q)'s output).
  std::vector<ObjectResult> Search(
      const IndoorPoint& q, size_t k, double radius,
      const Filters* filters = nullptr,
      Span<const OverlayObject> overlay = {}, SearchStats* stats = nullptr,
      const AscentDistances* precomputed = nullptr) const;

  // Exact distances from q to the packed objects and then the overlay
  // objects `hot` of q's own leaf (one leaf search seeded from `ascent`,
  // q's root ascent). Fills the search's counters into `stats` when set.
  void LocalObjectDistances(const IndoorPoint& q,
                            const AscentDistances& ascent,
                            Span<const OverlayObject> hot,
                            std::vector<double>& out,
                            SearchStats* stats) const;

  // Per-node search state, valid for the query whose stamp it carries.
  struct NodeScratch {
    uint32_t ad_stamp = 0;     // ad_off locates this node's access-door row
    uint32_t chain_stamp = 0;  // the node contains q, at chain_pos
    uint32_t ad_off = 0;       // offset of the row in ad_pool_
    int32_t chain_pos = 0;     // index into AscentDistances::chain
  };

  const IPTree& tree_;
  const ObjectIndex* objects_;
  IPDistanceQuery query_;  // also owns the Dijkstra scratch of the leaf search
  // Same-leaf scan scratch: LocalObjectDistances' target doors and its
  // output, reused across searches.
  mutable std::vector<DoorId> local_targets_;
  mutable std::vector<double> local_dists_;
  // Search scratch indexed by node id, stamped per query: dist(q, access
  // doors) rows live back to back in ad_pool_.
  mutable std::vector<NodeScratch> nodes_;
  mutable std::vector<double> ad_pool_;
  mutable uint32_t stamp_ = 0;
  // Search heaps and per-leaf scratch, cleared (not freed) per search: the
  // best-first node heap, the k-best result heap, each leaf's best
  // distance per object and its in-radius indices.
  using NodeBound = std::pair<double, NodeId>;
  mutable std::vector<NodeBound> node_heap_;
  mutable std::vector<ObjectResult> best_;
  mutable std::vector<double> leaf_best_;
  mutable std::vector<int32_t> in_radius_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_KNN_QUERY_H_
