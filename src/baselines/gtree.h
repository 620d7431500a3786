// G-tree [28], the state-of-the-art road-network index of §4, adapted to
// the indoor D2D graph exactly as the paper describes ("constructed by
// passing the D2D graph as input and the query processing algorithms are
// adapted to suit indoor query processing").
//
// Differences from IP-Tree that make it a distinct system (§5): leaves are
// produced by a multilevel graph partitioner over doors (ignoring indoor
// partitions), the node door sets are *borders* (vertices with an edge
// leaving the subgraph) rather than access doors, fanout is a fixed
// parameter, and there is no superior-door or hallway machinery. The
// indoor adaptation maps a query point to all doors of its partition,
// which may straddle several G-tree leaves — each (source leaf, target
// leaf) pair is assembled separately, one reason the adapted G-tree is
// slow on indoor graphs.

#ifndef VIPTREE_BASELINES_GTREE_H_
#define VIPTREE_BASELINES_GTREE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/matrix.h"
#include "graph/d2d_graph.h"
#include "graph/dijkstra.h"
#include "model/venue.h"
#include "common/span.h"

namespace viptree {

struct GTreeOptions {
  int fanout = 4;        // children per internal node
  size_t leaf_tau = 64;  // maximum doors per leaf
  uint64_t seed = 1;
};

struct GTreeObjectResult {
  ObjectId object = kInvalidId;
  double distance = kInfDistance;
};

class GTree {
 public:
  GTree(const Venue& venue, const D2DGraph& graph,
        const GTreeOptions& options = {});

  GTree(const GTree&) = delete;
  GTree& operator=(const GTree&) = delete;
  GTree(GTree&&) = default;

  double Distance(const IndoorPoint& s, const IndoorPoint& t);
  double DoorDistance(DoorId u, DoorId v);

  // Shortest path: distance plus the full door sequence.
  double Path(const IndoorPoint& s, const IndoorPoint& t,
              std::vector<DoorId>* doors);

  void SetObjects(std::vector<IndoorPoint> objects);
  std::vector<GTreeObjectResult> Knn(const IndoorPoint& q, size_t k);
  std::vector<GTreeObjectResult> Range(const IndoorPoint& q, double radius);

  uint64_t MemoryBytes() const;

 private:
  // ROAD reuses the hierarchy and shortcut matrices (docs/ARCHITECTURE.md).
  friend class RoadIndex;

  struct GNode {
    NodeId id = kInvalidId;
    NodeId parent = kInvalidId;
    int level = 1;
    std::vector<NodeId> children;
    std::vector<DoorId> vertices;  // leaf only, sorted
    std::vector<DoorId> borders;   // sorted
    std::vector<DoorId> matrix_doors;  // non-leaf: union of child borders
    FlatMatrix<float> dist;      // leaf: vertices x borders; else square
    FlatMatrix<DoorId> next_hop;  // first matrix door on the path
    uint32_t leaf_begin = 0;
    uint32_t leaf_end = 0;
    bool is_leaf() const { return children.empty(); }
  };

  // Distances from a multi-source seed in one leaf up to `target`'s
  // borders; mirrors IP-Tree's Algorithm 2.
  struct Ascent {
    std::vector<NodeId> chain;
    std::vector<std::vector<double>> border_dist;
    std::vector<std::vector<std::pair<DoorId, int>>> back;  // (pred, idx)
  };
  Ascent Ascend(NodeId leaf, const std::vector<DijkstraSource>& seeds,
                NodeId target) const;

  NodeId Lca(NodeId a, NodeId b) const;
  bool NodeContainsLeaf(NodeId n, NodeId leaf) const;
  NodeId ChildToward(NodeId ancestor, NodeId leaf) const;

  // Groups the doors of a partition (with offsets from `p`) by leaf.
  std::unordered_map<NodeId, std::vector<DijkstraSource>> SourceGroups(
      const IndoorPoint& p) const;

  double AssembleDistance(
      const std::unordered_map<NodeId, std::vector<DijkstraSource>>& s_groups,
      const std::unordered_map<NodeId, std::vector<DijkstraSource>>& t_groups,
      bool want_path, std::vector<DoorId>* path_doors);

  // Path expansion through next-hop matrices (descend into the deepest node
  // representing the pair).
  void Expand(DoorId x, DoorId y, NodeId ctx, std::vector<DoorId>& out) const;
  bool Represents(DoorId x, DoorId y, NodeId n) const;

  double LocalDistance(const IndoorPoint& s, const IndoorPoint& t,
                       std::vector<DoorId>* path_doors);

  const Venue& venue_;
  const D2DGraph& graph_;
  GTreeOptions options_;
  std::vector<GNode> nodes_;
  NodeId root_ = kInvalidId;
  size_t num_leaves_ = 0;
  std::vector<NodeId> leaf_of_door_;
  std::vector<uint8_t> is_border_;  // border of at least one leaf
  mutable DijkstraEngine engine_;

  // Objects.
  std::vector<IndoorPoint> objects_;
  std::vector<std::vector<ObjectId>> leaf_objects_;
  // leaf -> border col -> per-object distance (aligned with leaf_objects_).
  std::vector<std::vector<std::vector<double>>> leaf_border_obj_;
  std::vector<uint32_t> obj_prefix_;  // by leaf dfs index

  std::vector<GTreeObjectResult> SearchObjects(const IndoorPoint& q, size_t k,
                                               double radius);
};

}  // namespace viptree

#endif  // VIPTREE_BASELINES_GTREE_H_
