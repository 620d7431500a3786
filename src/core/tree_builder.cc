#include "core/tree_builder.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "core/leaf_assembler.h"
#include "graph/dijkstra.h"
#include "common/span.h"

namespace viptree {

namespace {

void SortUnique(std::vector<DoorId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// A small reusable Dijkstra over a compact weighted graph (the level-l
// graphs of §2.1.2). Epoch-stamped like DijkstraEngine so per-node runs do
// not pay O(V) initialization.
class LevelGraphDijkstra {
 public:
  struct Arc {
    int to;
    float weight;
  };

  explicit LevelGraphDijkstra(const std::vector<std::vector<Arc>>& adjacency)
      : adjacency_(adjacency),
        dist_(adjacency.size(), kInfDistance),
        parent_(adjacency.size(), -1),
        settled_(adjacency.size(), 0),
        mark_(adjacency.size(), 0) {}

  // Runs from `source` until all of `targets` are settled.
  void Run(int source, const std::vector<int>& targets) {
    ++epoch_;
    heap_.clear();
    Reach(source, 0.0, -1);
    size_t wanted = 0;
    for (int t : targets) {
      if (!(mark_[t] == epoch_ && settled_[t])) ++wanted;
    }
    while (wanted > 0 && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
      const auto [d, u] = heap_.back();
      heap_.pop_back();
      if (settled_[u] && mark_[u] == epoch_) continue;
      if (d > dist_[u]) continue;
      settled_[u] = 1;
      if (std::binary_search(targets.begin(), targets.end(), u)) --wanted;
      for (const Arc& arc : adjacency_[u]) {
        if (mark_[arc.to] == epoch_ && settled_[arc.to]) continue;
        Reach(arc.to, d + arc.weight, u);
      }
    }
  }

  bool Settled(int v) const { return mark_[v] == epoch_ && settled_[v]; }
  double DistanceTo(int v) const {
    return Settled(v) ? dist_[v] : kInfDistance;
  }
  int ParentOf(int v) const { return Settled(v) ? parent_[v] : -1; }

 private:
  void Reach(int v, double d, int parent) {
    if (mark_[v] != epoch_) {
      mark_[v] = epoch_;
      settled_[v] = 0;
      dist_[v] = kInfDistance;
    }
    if (d < dist_[v]) {
      dist_[v] = d;
      parent_[v] = parent;
      heap_.emplace_back(d, v);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
    }
  }

  const std::vector<std::vector<Arc>>& adjacency_;
  std::vector<double> dist_;
  std::vector<int> parent_;
  std::vector<uint8_t> settled_;
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  // Min-heap kept as a plain vector so each Run() clears it without
  // freeing its storage (as DijkstraEngine does).
  using HeapEntry = std::pair<double, int>;
  std::vector<HeapEntry> heap_;
};

}  // namespace

TreeBuilder::TreeBuilder(const Venue& venue, const D2DGraph& graph,
                         const IPTreeOptions& options)
    : venue_(venue), graph_(graph), options_(options) {
  VIPTREE_CHECK_MSG(options_.min_degree >= 2, "minimum degree t must be >= 2");
  tree_.venue_ = &venue;
  tree_.graph_ = &graph;
}

IPTree TreeBuilder::BuildIPTree() {
  BuildLeaves();
  BuildUpperLevels();
  AssignLeafIntervals();
  BuildLeafMatricesAndSuperiorDoors();
  BuildNonLeafMatrices();
  RenumberNodesTraversalOrder();
  tree_.FinishConstruction();
  return std::move(tree_);
}

// Re-ids every node in pre-order DFS position (root = 0, children in
// stored order), so the kNN branch-and-bound descent touches consecutive
// node records — prefetches and cache lines follow the traversal instead
// of the leaves-first construction order. Must run LAST: the earlier
// build phases iterate leaves as ids [0, num_leaves_). The new numbering
// persists through snapshots unchanged (nodes carry explicit ids, and
// ValidateParts only requires density, not leaves-first).
void TreeBuilder::RenumberNodesTraversalOrder() {
  IPTree& t = tree_;
  const size_t n = t.nodes_.size();
  if (n == 0) return;
  std::vector<NodeId> new_id(n, kInvalidId);
  std::vector<NodeId> order;  // order[new] = old
  order.reserve(n);
  std::vector<NodeId> stack;
  stack.push_back(t.root_);
  while (!stack.empty()) {
    const NodeId old = stack.back();
    stack.pop_back();
    new_id[old] = static_cast<NodeId>(order.size());
    order.push_back(old);
    const TreeNode& node = t.nodes_[old];
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  VIPTREE_CHECK_MSG(order.size() == n, "tree must reach every node");
  std::vector<TreeNode> renumbered(n);
  for (size_t ni = 0; ni < n; ++ni) {
    renumbered[ni] = std::move(t.nodes_[order[ni]]);
    TreeNode& node = renumbered[ni];
    node.id = static_cast<NodeId>(ni);
    if (node.parent != kInvalidId) node.parent = new_id[node.parent];
    for (NodeId& c : node.children) c = new_id[c];
  }
  t.nodes_ = std::move(renumbered);
  t.root_ = new_id[t.root_];
  for (size_t p = 0; p < t.leaf_of_partition_.size(); ++p) {
    t.leaf_of_partition_[p] = new_id[t.leaf_of_partition_[p]];
  }
  for (size_t d = 0; d < t.door_leaves_.size(); ++d) {
    for (IPTree::DoorLeafEntry& e : t.door_leaves_[d]) {
      if (e.leaf != kInvalidId) e.leaf = new_id[e.leaf];
    }
  }
}

bool TreeBuilder::IsAccessOf(DoorId d,
                             const std::vector<NodeId>& cluster_of_leaf,
                             [[maybe_unused]] NodeId cluster) const {
  const Door& door = venue_.door(d);
  if (door.is_exterior()) return true;
  const NodeId ca = cluster_of_leaf[tree_.leaf_of_partition_[door.partition_a]];
  const NodeId cb = cluster_of_leaf[tree_.leaf_of_partition_[door.partition_b]];
  VIPTREE_DCHECK(ca == cluster || cb == cluster);
  return ca != cb;
}

void TreeBuilder::BuildLeaves() {
  const LeafAssignment assignment =
      options_.forced_leaf_assignment.has_value()
          ? ForcedLeaves(venue_, *options_.forced_leaf_assignment)
          : AssembleLeaves(venue_);
  tree_.num_leaves_ = static_cast<size_t>(assignment.num_leaves);
  tree_.leaf_of_partition_.assign(assignment.leaf_of_partition.begin(),
                                  assignment.leaf_of_partition.end());

  tree_.nodes_.resize(tree_.num_leaves_);
  for (size_t i = 0; i < tree_.num_leaves_; ++i) {
    TreeNode& leaf = tree_.nodes_[i];
    leaf.id = static_cast<NodeId>(i);
    leaf.level = 1;
  }
  for (PartitionId p = 0; p < static_cast<PartitionId>(venue_.NumPartitions());
       ++p) {
    tree_.nodes_[tree_.leaf_of_partition_[p]].partitions.push_back(p);
  }
  for (TreeNode& leaf : tree_.nodes_) {
    for (PartitionId p : leaf.partitions) {
      for (DoorId d : venue_.DoorsOf(p)) leaf.doors.push_back(d);
    }
    SortUnique(leaf.doors);
  }

  // Access doors of leaves; also the global access-door flags of §3.2 and
  // the door -> (leaf, row) lookup.
  std::vector<NodeId> identity(tree_.num_leaves_);
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<NodeId>(i);
  }
  tree_.is_access_door_.assign(venue_.NumDoors(), 0);
  tree_.door_leaves_.assign(
      venue_.NumDoors(),
      {IPTree::DoorLeafEntry{kInvalidId, 0}, IPTree::DoorLeafEntry{kInvalidId, 0}});
  for (TreeNode& leaf : tree_.nodes_) {
    for (size_t row = 0; row < leaf.doors.size(); ++row) {
      const DoorId d = leaf.doors[row];
      if (IsAccessOf(d, identity, leaf.id)) {
        leaf.access_doors.push_back(d);
        tree_.is_access_door_[d] = 1;
      }
      auto& entries = tree_.door_leaves_[d];
      if (entries[0].leaf == kInvalidId) {
        entries[0] = {leaf.id, static_cast<uint32_t>(row)};
      } else {
        VIPTREE_DCHECK(entries[1].leaf == kInvalidId);
        entries[1] = {leaf.id, static_cast<uint32_t>(row)};
      }
    }
    // doors are sorted, so access_doors is sorted too.
  }
}

void TreeBuilder::BuildUpperLevels() {
  const int t = options_.min_degree;
  // cluster_of_leaf maps every leaf to the node that currently contains it
  // at the level under construction.
  std::vector<NodeId> cluster_of_leaf(tree_.num_leaves_);
  for (size_t i = 0; i < cluster_of_leaf.size(); ++i) {
    cluster_of_leaf[i] = static_cast<NodeId>(i);
  }

  std::vector<NodeId> current;  // node ids at the current top level
  for (size_t i = 0; i < tree_.num_leaves_; ++i) {
    current.push_back(static_cast<NodeId>(i));
  }

  int level = 1;
  while (current.size() > static_cast<size_t>(t)) {
    // --- Algorithm 1: createNextLevel -------------------------------
    // Clusters are identified by a representative node id in `current`;
    // merging folds one representative into another.
    struct Cluster {
      std::vector<NodeId> members;  // level-l node ids
      std::vector<DoorId> access_doors;
      std::vector<NodeId> leaves;  // leaf ids contained (for cluster_of_leaf)
      int degree = 0;
      bool alive = false;
    };
    std::map<NodeId, Cluster> clusters;
    std::vector<NodeId> cluster_of(cluster_of_leaf);  // leaf -> cluster rep
    for (NodeId n : current) {
      Cluster c;
      c.members = {n};
      c.access_doors = tree_.nodes_[n].access_doors;
      c.degree = 1;
      c.alive = true;
      clusters[n] = std::move(c);
    }
    for (size_t leaf = 0; leaf < cluster_of_leaf.size(); ++leaf) {
      clusters[cluster_of_leaf[leaf]].leaves.push_back(
          static_cast<NodeId>(leaf));
    }

    // For a door on the boundary of cluster `rep`, the cluster on the other
    // side (kInvalidId for exterior doors).
    auto other_cluster = [&](DoorId d, NodeId rep) -> NodeId {
      const Door& door = venue_.door(d);
      if (door.is_exterior()) return kInvalidId;
      const NodeId ca =
          cluster_of[tree_.leaf_of_partition_[door.partition_a]];
      const NodeId cb =
          cluster_of[tree_.leaf_of_partition_[door.partition_b]];
      return ca == rep ? cb : ca;
    };
    auto adjacent_count = [&](const Cluster& c, NodeId rep) {
      std::vector<NodeId> neighbours;
      for (DoorId d : c.access_doors) {
        const NodeId o = other_cluster(d, rep);
        if (o != kInvalidId && o != rep) neighbours.push_back(o);
      }
      std::sort(neighbours.begin(), neighbours.end());
      neighbours.erase(std::unique(neighbours.begin(), neighbours.end()),
                       neighbours.end());
      return neighbours.size();
    };

    // Min-heap keyed by (degree, number of adjacent nodes, id); the paper's
    // heap prefers low degree, then fewer adjacent nodes (line 1 of Alg. 1).
    using Key = std::tuple<int, size_t, NodeId>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
    size_t alive = 0;
    for (auto& [rep, c] : clusters) {
      heap.emplace(c.degree, adjacent_count(c, rep), rep);
      ++alive;
    }

    while (!heap.empty() && alive > 1) {
      const auto [degree, adj, rep] = heap.top();
      Cluster& ni = clusters[rep];
      if (!ni.alive || ni.degree != degree) {
        heap.pop();
        continue;  // stale entry
      }
      if (degree >= t) break;
      heap.pop();

      // Line 4: the adjacent node with the most common access doors
      // (common door <=> one of Ni's access doors leads into it).
      std::map<NodeId, int> common;
      for (DoorId d : ni.access_doors) {
        const NodeId o = other_cluster(d, rep);
        if (o != kInvalidId && o != rep) ++common[o];
      }
      if (common.empty()) {
        // No mergeable neighbour (exterior-only boundary); park the cluster
        // by treating it as full so the loop can terminate.
        heap.emplace(t, adj, rep);
        clusters[rep].degree = t;
        continue;
      }
      NodeId best = kInvalidId;
      int best_common = -1;
      for (const auto& [o, cnt] : common) {
        if (cnt > best_common) {
          best = o;
          best_common = cnt;
        }
      }

      // Merge `best` into `rep`.
      Cluster& nj = clusters[best];
      VIPTREE_DCHECK(nj.alive);
      ni.members.insert(ni.members.end(), nj.members.begin(),
                        nj.members.end());
      ni.degree += nj.degree;
      for (NodeId leaf : nj.leaves) cluster_of[leaf] = rep;
      ni.leaves.insert(ni.leaves.end(), nj.leaves.begin(), nj.leaves.end());
      std::vector<DoorId> candidate = ni.access_doors;
      candidate.insert(candidate.end(), nj.access_doors.begin(),
                       nj.access_doors.end());
      SortUnique(candidate);
      ni.access_doors.clear();
      for (DoorId d : candidate) {
        const NodeId o = other_cluster(d, rep);
        if (o != rep) ni.access_doors.push_back(d);  // incl. exterior
      }
      nj.alive = false;
      nj.members.clear();
      nj.leaves.clear();
      --alive;
      heap.emplace(ni.degree, adjacent_count(ni, rep), rep);
    }

    // Materialize the surviving clusters as level l+1 nodes.
    std::vector<NodeId> next;
    bool merged_any = false;
    for (auto& [rep, c] : clusters) {
      if (!c.alive) continue;
      if (c.members.size() == 1) {
        next.push_back(c.members[0]);  // pass-through (degenerate venues)
        continue;
      }
      merged_any = true;
      TreeNode node;
      node.id = static_cast<NodeId>(tree_.nodes_.size());
      node.level = level + 1;
      node.children = c.members;
      std::sort(node.children.begin(), node.children.end());
      node.access_doors = std::move(c.access_doors);
      for (NodeId child : node.children) {
        tree_.nodes_[child].parent = node.id;
      }
      for (NodeId leaf : c.leaves) cluster_of_leaf[leaf] = node.id;
      next.push_back(node.id);
      tree_.nodes_.push_back(std::move(node));
    }
    std::sort(next.begin(), next.end());
    if (!merged_any) break;  // cannot reduce further; root-merge below
    current = std::move(next);
    ++level;
  }

  // Merge the remaining nodes (<= t of them) into the root.
  if (current.size() == 1) {
    tree_.root_ = current[0];
  } else {
    TreeNode root;
    root.id = static_cast<NodeId>(tree_.nodes_.size());
    root.level = level + 1;
    root.children = current;
    for (NodeId child : current) tree_.nodes_[child].parent = root.id;
    // Access doors of the root: exterior doors only.
    std::vector<DoorId> candidate;
    for (NodeId child : current) {
      candidate.insert(candidate.end(),
                       tree_.nodes_[child].access_doors.begin(),
                       tree_.nodes_[child].access_doors.end());
    }
    SortUnique(candidate);
    for (DoorId d : candidate) {
      if (venue_.door(d).is_exterior()) root.access_doors.push_back(d);
    }
    tree_.root_ = root.id;
    tree_.nodes_.push_back(std::move(root));
  }
}

void TreeBuilder::AssignLeafIntervals() {
  // Iterative DFS from the root assigning consecutive indices to leaves.
  uint32_t counter = 0;
  // Post-order intervals: process children, then set own interval.
  struct Frame {
    NodeId node;
    size_t next_child;
    uint32_t begin;
  };
  std::vector<Frame> stack = {{tree_.root_, 0, 0}};
  stack.back().begin = 0;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    TreeNode& node = tree_.nodes_[frame.node];
    if (node.is_leaf()) {
      node.leaf_begin = counter;
      node.leaf_end = ++counter;
      stack.pop_back();
      continue;
    }
    if (frame.next_child == 0) frame.begin = counter;
    if (frame.next_child < node.children.size()) {
      const NodeId child = node.children[frame.next_child++];
      stack.push_back({child, 0, counter});
    } else {
      node.leaf_begin = frame.begin;
      node.leaf_end = counter;
      stack.pop_back();
    }
  }
}

void TreeBuilder::BuildLeafMatricesAndSuperiorDoors() {
  // superior[p] accumulates the superior doors of partition p (a door
  // belongs to up to two partitions, so membership is per (partition,
  // door)); SortUnique at the end makes the order of discovery irrelevant.
  std::vector<std::vector<DoorId>> superior(venue_.NumPartitions());

  // Local access doors are superior by definition (Definition 2 case i).
  for (const TreeNode& leaf : tree_.nodes_) {
    if (!leaf.is_leaf()) continue;
    for (PartitionId p : leaf.partitions) {
      for (DoorId d : venue_.DoorsOf(p)) {
        if (IPTree::IndexOf(leaf.access_doors, d) >= 0) {
          superior[p].push_back(d);
        }
      }
    }
  }

  // Shape every leaf matrix first (the searches below write cells in place)
  // and group the (leaf, column) cells by access door: an interior access
  // door is shared by the two leaves it connects, and one search from it
  // serves both columns.
  struct Column {
    NodeId leaf;
    uint32_t col;
  };
  std::vector<std::vector<Column>> columns_of(venue_.NumDoors());
  std::vector<DoorId> sources;
  for (size_t i = 0; i < tree_.num_leaves_; ++i) {
    TreeNode& leaf = tree_.nodes_[i];
    leaf.dist = FlatMatrix<float>(leaf.doors.size(), leaf.access_doors.size(),
                                  0.0f);
    leaf.next_hop = FlatMatrix<DoorId>(leaf.doors.size(),
                                       leaf.access_doors.size(), kInvalidId);
    for (size_t col = 0; col < leaf.access_doors.size(); ++col) {
      const DoorId a = leaf.access_doors[col];
      if (columns_of[a].empty()) sources.push_back(a);
      columns_of[a].push_back({leaf.id, static_cast<uint32_t>(col)});
    }
  }

  // One search per access door, resumed leaf by leaf (see VIPTree::Extend
  // for why every cell keeps the bits of a per-leaf search). Superior doors
  // found from source i go to found[i] and are merged after the join.
  std::vector<std::vector<std::pair<PartitionId, DoorId>>> found(
      sources.size());
  ForEachSource(graph_, sources.size(), ConstructionWorkers(),
                [&](size_t i, DijkstraEngine& engine) {
                  const DoorId a = sources[i];
                  engine.Start(a);
                  for (const Column& column : columns_of[a]) {
                    TreeNode& leaf = tree_.nodes_[column.leaf];
                    FillMatrixColumn(tree_, leaf.id, leaf.doors, column.col,
                                     engine, leaf.dist, leaf.next_hop);
                    CollectSuperiorDoors(engine, leaf, a, found[i]);
                  }
                });
  for (const auto& per_source : found) {
    for (const auto& [p, d] : per_source) superior[p].push_back(d);
  }

  // Pack the superior-door CSR.
  tree_.superior_offsets_.assign(venue_.NumPartitions() + 1, 0);
  for (size_t p = 0; p < venue_.NumPartitions(); ++p) {
    SortUnique(superior[p]);
    tree_.superior_offsets_[p + 1] =
        tree_.superior_offsets_[p] + static_cast<uint32_t>(superior[p].size());
  }
  tree_.superior_doors_.reserve(tree_.superior_offsets_.back());
  for (size_t p = 0; p < venue_.NumPartitions(); ++p) {
    tree_.superior_doors_.append(superior[p].begin(), superior[p].end());
  }
}

void FillMatrixColumn(const IPTree& tree, NodeId n, Span<const DoorId> rows,
                      size_t col, DijkstraEngine& engine,
                      FlatMatrix<float>& dist, FlatMatrix<DoorId>& next_hop) {
  const DoorId a = tree.node(n).access_doors[col];
  engine.RunToTargets(rows);
  for (size_t row = 0; row < rows.size(); ++row) {
    const DoorId d = rows[row];
    VIPTREE_CHECK_MSG(engine.Settled(d),
                      "node door unreachable from access door");
    dist.at(row, col) = static_cast<float>(engine.DistanceTo(d));
    if (d == a) continue;  // dist 0, next hop NULL
    // Walk the path d -> a (parent pointers of the tree rooted at a).
    bool inside = true;
    DoorId first_access = kInvalidId;
    for (DoorId cur = d; cur != a; cur = engine.ParentOf(cur)) {
      const PartitionId via = engine.ParentVia(cur);
      if (!tree.NodeContainsPartition(n, via)) inside = false;
      const DoorId next = engine.ParentOf(cur);
      if (next != a && first_access == kInvalidId &&
          tree.IsAccessDoor(next)) {
        first_access = next;
      }
    }
    const DoorId first_door = engine.ParentOf(d);
    if (inside) {
      next_hop.at(row, col) = first_door == a ? kInvalidId : first_door;
    } else {
      // Example 6: the next hop must be the first access door so the
      // decomposition can continue outside the node.
      DoorId hop = first_access;
      if (hop == kInvalidId) {
        // Path leaves the node but the only doors on it are d and a
        // (e.g. a parallel edge through a foreign partition).
        hop = first_door == a ? kInvalidId : first_door;
      }
      next_hop.at(row, col) = hop;
    }
  }
}

void TreeBuilder::CollectSuperiorDoors(
    const DijkstraEngine& engine, const TreeNode& leaf, DoorId a,
    std::vector<std::pair<PartitionId, DoorId>>& superior) const {
  // Superior doors (Definition 2 case ii): for partitions of this leaf
  // for which `a` is a *global* access door, a door di is superior if
  // the path di -> a crosses no other door of the partition.
  for (PartitionId p : leaf.partitions) {
    if (venue_.DoorTouches(a, p)) continue;
    for (DoorId di : venue_.DoorsOf(p)) {
      bool crosses_other = false;
      for (DoorId cur = di; cur != a; cur = engine.ParentOf(cur)) {
        if (cur != di && venue_.DoorTouches(cur, p)) {
          crosses_other = true;
          break;
        }
      }
      if (!crosses_other) superior.emplace_back(p, di);
    }
  }
}

void TreeBuilder::BuildNonLeafMatrices() {
  // Group non-leaf nodes by level.
  int max_level = tree_.nodes_[tree_.root_].level;
  std::vector<std::vector<NodeId>> by_level(max_level + 1);
  for (const TreeNode& n : tree_.nodes_) {
    if (!n.is_leaf()) by_level[n.level].push_back(n.id);
  }

  for (int level = 2; level <= max_level; ++level) {
    if (by_level[level].empty()) continue;
    // --- Level-l graph G_l: vertices are access doors of level l-1 nodes,
    // edges connect access doors of the same level l-1 node (§2.1.2).
    // "Level l-1 nodes" here are the children of the level-l nodes (the
    // pass-through case makes children potentially deeper than l-1; using
    // children is the correct generalization).
    std::vector<DoorId> vertices;
    std::vector<NodeId> producer_nodes;
    for (NodeId nid : by_level[level]) {
      for (NodeId child : tree_.nodes_[nid].children) {
        producer_nodes.push_back(child);
        const TreeNode& c = tree_.nodes_[child];
        vertices.insert(vertices.end(), c.access_doors.begin(),
                        c.access_doors.end());
      }
    }
    SortUnique(vertices);
    std::vector<int> vertex_of_door(venue_.NumDoors(), -1);
    for (size_t i = 0; i < vertices.size(); ++i) {
      vertex_of_door[vertices[i]] = static_cast<int>(i);
    }

    std::vector<std::vector<LevelGraphDijkstra::Arc>> adjacency(
        vertices.size());
    for (NodeId child : producer_nodes) {
      const TreeNode& c = tree_.nodes_[child];
      for (size_t i = 0; i < c.access_doors.size(); ++i) {
        for (size_t j = i + 1; j < c.access_doors.size(); ++j) {
          const DoorId u = c.access_doors[i];
          const DoorId v = c.access_doors[j];
          float w;
          if (c.is_leaf()) {
            w = tree_.LeafMatrixDist(c, u, v);
          } else {
            const int r = IPTree::IndexOf(c.matrix_doors, u);
            const int cc = IPTree::IndexOf(c.matrix_doors, v);
            VIPTREE_DCHECK(r >= 0 && cc >= 0);
            w = c.dist.at(r, cc);
          }
          const int cu = vertex_of_door[u];
          const int cv = vertex_of_door[v];
          adjacency[cu].push_back({cv, w});
          adjacency[cv].push_back({cu, w});
        }
      }
    }
    LevelGraphDijkstra dijkstra(adjacency);

    // --- Distance matrices of the level-l nodes.
    for (NodeId nid : by_level[level]) {
      TreeNode& node = tree_.nodes_[nid];
      node.matrix_doors.clear();
      for (NodeId child : node.children) {
        const TreeNode& c = tree_.nodes_[child];
        node.matrix_doors.insert(node.matrix_doors.end(),
                                 c.access_doors.begin(),
                                 c.access_doors.end());
      }
      SortUnique(node.matrix_doors);
      const size_t m = node.matrix_doors.size();
      node.dist = FlatMatrix<float>(m, m, 0.0f);
      node.next_hop = FlatMatrix<DoorId>(m, m, kInvalidId);

      std::vector<int> targets;
      targets.reserve(m);
      for (DoorId d : node.matrix_doors) targets.push_back(vertex_of_door[d]);
      std::sort(targets.begin(), targets.end());

      for (size_t row = 0; row < m; ++row) {
        const int src = vertex_of_door[node.matrix_doors[row]];
        dijkstra.Run(src, targets);
        for (size_t col = 0; col < m; ++col) {
          if (col == row) continue;
          const int dst = vertex_of_door[node.matrix_doors[col]];
          VIPTREE_CHECK_MSG(dijkstra.Settled(dst),
                            "level graph must be connected");
          node.dist.at(row, col) =
              static_cast<float>(dijkstra.DistanceTo(dst));
          // Next hop: first door of V(N) on the path row -> col. Walk the
          // parent chain dst -> src, remembering the vertex *closest to
          // src*, i.e. the last V(N)-member seen before reaching src.
          DoorId hop = kInvalidId;
          for (int cur = dijkstra.ParentOf(dst); cur != src && cur != -1;
               cur = dijkstra.ParentOf(cur)) {
            const DoorId cur_door = vertices[cur];
            if (IPTree::IndexOf(node.matrix_doors, cur_door) >= 0) {
              hop = cur_door;
            }
          }
          node.next_hop.at(row, col) = hop;
        }
      }
    }
  }
}

}  // namespace viptree
