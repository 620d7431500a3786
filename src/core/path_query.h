// Shortest path queries (§3.2 / §3.3): recover the full door sequence of
// the shortest path by decomposing the partial path maintained by the
// distance query (Algorithm 4).
//
// IPPathQuery decomposes partial edges top-down through node distance
// matrices (descending into the deepest node whose matrix represents the
// pair, which subsumes the paper's lowest-common-ancestor rule).
// VIPPathQuery walks next-hop pointers of the materialized matrices and
// achieves the expected O(w) of §3.3.

#ifndef VIPTREE_CORE_PATH_QUERY_H_
#define VIPTREE_CORE_PATH_QUERY_H_

#include <vector>

#include "core/distance_query.h"

namespace viptree {

struct IndoorPath {
  double distance = kInfDistance;
  // Door sequence from s to t; empty when the best route stays inside one
  // partition (s and t see each other directly).
  std::vector<DoorId> doors;
};

class IPPathQuery {
 public:
  // `cache` as in IPDistanceQuery (forwarded to the internal engine);
  // nullptr disables memoization.
  explicit IPPathQuery(const IPTree& tree,
                       const DistanceQueryOptions& options = {},
                       DistanceCache* cache = nullptr);

  IndoorPath Path(const IndoorPoint& s, const IndoorPoint& t) const;
  IndoorPath DoorPath(DoorId s, DoorId t) const;

 private:
  friend class VIPPathQuery;

  IndoorPath CrossLeafPath(const QuerySource& s, const QuerySource& t) const;
  // The same-leaf route through the leaf search (core/distance_query.h):
  // `leaf` holds both s and t.
  IndoorPath LocalPath(const QuerySource& s, const QuerySource& t,
                       NodeId leaf) const;

  // Appends the doors strictly between x and y on their shortest path,
  // using the matrices of `ctx` and below. `ctx` must represent the pair.
  void Expand(DoorId x, DoorId y, NodeId ctx, std::vector<DoorId>& out) const;

  // Appends the doors strictly between x and y on a bounded Dijkstra's
  // shortest path: the rare segments no matrix walk recovers.
  void AppendSearchedSegment(DoorId x, DoorId y,
                             std::vector<DoorId>& out) const;

  // Deepest node under `ctx` (inclusive) whose matrix represents (x, y).
  NodeId Descend(DoorId x, DoorId y, NodeId ctx) const;
  bool Represents(DoorId x, DoorId y, NodeId n) const;

  // Turns an ascent into the partial door path source -> top access door
  // `top_idx` (index into AD(chain.back())). Returns door sequence plus the
  // context node for each edge.
  struct PartialPath {
    std::vector<DoorId> doors;
    std::vector<NodeId> edge_ctx;  // edge i connects doors[i] -> doors[i+1]
  };
  PartialPath Backtrack(const AscentDistances& ascent, size_t top_idx) const;

  const IPTree& tree_;
  IPDistanceQuery query_;
  mutable std::vector<double> seed_dist_;  // LocalPath seeds
  mutable std::vector<PathBack> seed_back_;
};

class VIPPathQuery {
 public:
  explicit VIPPathQuery(const VIPTree& tree,
                        const DistanceQueryOptions& options = {},
                        DistanceCache* cache = nullptr);

  IndoorPath Path(const IndoorPoint& s, const IndoorPoint& t) const;
  IndoorPath DoorPath(DoorId s, DoorId t) const;

 private:
  IndoorPath CrossLeafPath(const QuerySource& s, const QuerySource& t) const;

  // Appends the doors strictly between x and access door index `col` of
  // node A (an ancestor of Leaf(x)), walking materialized next-hops.
  void WalkToAncestorAd(DoorId x, NodeId ancestor, size_t col,
                        std::vector<DoorId>& out) const;

  const VIPTree& vip_;
  VIPDistanceQuery query_;
  IPPathQuery ip_path_;  // leaf-level and fallback expansion
};

}  // namespace viptree

#endif  // VIPTREE_CORE_PATH_QUERY_H_
