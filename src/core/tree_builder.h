// Bottom-up IP-Tree construction (§2.1.2): leaf assembly, Algorithm 1 node
// merging, leaf distance matrices (Dijkstra on the D2D graph), and non-leaf
// distance matrices (Dijkstra on the level-l graphs).

#ifndef VIPTREE_CORE_TREE_BUILDER_H_
#define VIPTREE_CORE_TREE_BUILDER_H_

#include <utility>
#include <vector>

#include "common/span.h"
#include "core/ip_tree.h"
#include "graph/d2d_graph.h"
#include "graph/dijkstra.h"
#include "model/venue.h"

namespace viptree {

// Fills column `col` of node `n`'s matrices `dist` / `next_hop`, whose rows
// are the doors `rows`, from `engine`'s running search from the column's
// access door, resuming it up to `rows`. A path that leaves `n` gets its
// first access door as next hop. Used for the IP-tree leaf matrices and the
// VIP extended matrices; writes nothing else, so calls for distinct columns
// may run concurrently.
void FillMatrixColumn(const IPTree& tree, NodeId n, Span<const DoorId> rows,
                      size_t col, DijkstraEngine& engine,
                      FlatMatrix<float>& dist, FlatMatrix<DoorId>& next_hop);

class TreeBuilder {
 public:
  TreeBuilder(const Venue& venue, const D2DGraph& graph,
              const IPTreeOptions& options);

  // Runs the full §2.1.2 pipeline and returns the finished tree.
  IPTree BuildIPTree();

 private:
  void BuildLeaves();
  void BuildUpperLevels();
  void AssignLeafIntervals();
  void BuildLeafMatricesAndSuperiorDoors();
  // Appends the (partition, door) superior pairs that access door `a`
  // yields for `leaf`, reading the path tree of `engine`'s search from `a`
  // (already run up to the leaf's doors).
  void CollectSuperiorDoors(
      const DijkstraEngine& engine, const TreeNode& leaf, DoorId a,
      std::vector<std::pair<PartitionId, DoorId>>& superior) const;
  void BuildNonLeafMatrices();
  void RenumberNodesTraversalOrder();

  // Whether door `d` is an access door of the group identified by
  // `cluster_of_leaf` (kInvalidId group = outside).
  bool IsAccessOf(DoorId d, const std::vector<NodeId>& cluster_of_leaf,
                  NodeId cluster) const;

  const Venue& venue_;
  const D2DGraph& graph_;
  IPTreeOptions options_;
  IPTree tree_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_TREE_BUILDER_H_
