#include "core/ip_tree.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/tree_builder.h"
#include "common/span.h"

namespace viptree {

IPTree IPTree::Build(const Venue& venue, const D2DGraph& graph,
                     const IPTreeOptions& options) {
  return TreeBuilder(venue, graph, options).BuildIPTree();
}

namespace {

// Fills the flat arrays behind IPTree::ParentMatrixPositions and
// OwnMatrixPositions: per node, the parent-matrix span, then its own. An
// access door missing from a matrix it must sit in is an error (a query
// would read matrix row -1 for it).
std::optional<std::string> MatrixPositions(const std::vector<TreeNode>& nodes,
                                           std::vector<uint32_t>& offsets,
                                           std::vector<int32_t>& positions) {
  offsets.assign(1, 0);
  positions.clear();
  for (const TreeNode& node : nodes) {
    // nullptr: the root has no parent matrix, a leaf no matrix_doors.
    for (const TreeNode* m :
         {node.parent == kInvalidId ? nullptr : &nodes[node.parent],
          node.is_leaf() ? nullptr : &node}) {
      if (m != nullptr) {
        for (DoorId d : node.access_doors) {
          const int idx = IPTree::IndexOf(m->matrix_doors, d);
          if (idx < 0) {
            return "tree node " + std::to_string(node.id) +
                   " has an access door missing from " +
                   (m == &node ? "its own" : "its parent's") + " matrix";
          }
          positions.push_back(idx);
        }
      }
      offsets.push_back(static_cast<uint32_t>(positions.size()));
    }
  }
  return std::nullopt;
}

// Structural check of one node's door lists and matrix shapes; `full` adds
// the per-cell matrix sweep (see IPTree::ValidationLevel).
std::optional<std::string> ValidateNode(const TreeNode& node,
                                        size_t num_nodes, size_t num_doors,
                                        size_t num_partitions,
                                        size_t num_leaves, bool full) {
  const std::string where = "tree node " + std::to_string(node.id);
  auto door_in_range = [num_doors](DoorId d) {
    return d >= 0 && static_cast<size_t>(d) < num_doors;
  };
  if (node.parent != kInvalidId &&
      (node.parent < 0 || static_cast<size_t>(node.parent) >= num_nodes)) {
    return where + " has out-of-range parent";
  }
  for (NodeId c : node.children) {
    if (c < 0 || static_cast<size_t>(c) >= num_nodes) {
      return where + " has out-of-range child";
    }
  }
  for (PartitionId p : node.partitions) {
    if (p < 0 || static_cast<size_t>(p) >= num_partitions) {
      return where + " has out-of-range partition";
    }
  }
  for (DoorId d : node.doors) {
    if (!door_in_range(d)) return where + " has out-of-range door";
  }
  for (DoorId d : node.access_doors) {
    if (!door_in_range(d)) return where + " has out-of-range access door";
  }
  for (DoorId d : node.matrix_doors) {
    if (!door_in_range(d)) return where + " has out-of-range matrix door";
  }
  if (node.leaf_begin > node.leaf_end ||
      node.leaf_end > static_cast<uint32_t>(num_leaves)) {
    return where + " has an invalid leaf interval";
  }
  const size_t rows =
      node.is_leaf() ? node.doors.size() : node.matrix_doors.size();
  const size_t cols =
      node.is_leaf() ? node.access_doors.size() : node.matrix_doors.size();
  if (node.dist.rows() != rows || node.dist.cols() != cols) {
    return where + " has a distance matrix of the wrong shape";
  }
  if (node.next_hop.rows() != rows || node.next_hop.cols() != cols) {
    return where + " has a next-hop matrix of the wrong shape";
  }
  if (!full) return std::nullopt;
  // Cell values are load-bearing: next-hop entries are used as array
  // indices by path expansion and must name an *intermediate* door
  // (distinct from both endpoints); distances must be finite and
  // non-negative on a connected venue.
  const std::vector<DoorId>& row_doors =
      node.is_leaf() ? node.doors : node.matrix_doors;
  const std::vector<DoorId>& col_doors =
      node.is_leaf() ? node.access_doors : node.matrix_doors;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (!(node.dist.at(r, c) >= 0.0f) ||
          node.dist.at(r, c) == std::numeric_limits<float>::infinity()) {
        return where + " has a negative, NaN or infinite distance";
      }
      const DoorId hop = node.next_hop.at(r, c);
      if (hop == kInvalidId) continue;
      if (hop < 0 || static_cast<size_t>(hop) >= num_doors ||
          hop == row_doors[r] || hop == col_doors[c]) {
        return where + " has an invalid next-hop entry";
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> IPTree::ValidateParts(const Venue& venue,
                                                 const Parts& parts,
                                                 ValidationLevel level) {
  const size_t num_nodes = parts.nodes.size();
  const size_t num_doors = venue.NumDoors();
  const size_t num_partitions = venue.NumPartitions();
  if (num_nodes == 0) return "tree has no nodes";
  if (parts.root < 0 || static_cast<size_t>(parts.root) >= num_nodes) {
    return "tree root id out of range";
  }
  if (parts.num_leaves == 0 || parts.num_leaves > num_nodes) {
    return "tree leaf count out of range";
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    if (parts.nodes[i].id != static_cast<NodeId>(i)) {
      return "tree node " + std::to_string(i) + " has non-dense id";
    }
    const std::optional<std::string> error = ValidateNode(
        parts.nodes[i], num_nodes, num_doors, num_partitions,
        parts.num_leaves, level == ValidationLevel::kFull);
    if (error.has_value()) return error;
  }
  // Parent links must form a single tree rooted at `root`: exactly one node
  // has no parent, and every parent sits on a strictly higher level — the
  // property that makes ancestor ascents (and Lca) terminate, so a
  // CRC-valid but cyclic snapshot cannot hang the first query.
  for (const TreeNode& node : parts.nodes) {
    if (node.parent == kInvalidId) {
      if (node.id != parts.root) {
        return "tree node " + std::to_string(node.id) +
               " has no parent but is not the root";
      }
    } else if (parts.nodes[node.parent].level <= node.level) {
      return "tree node " + std::to_string(node.id) +
             " has a parent on a non-ascending level";
    }
  }
  if (parts.nodes[parts.root].parent != kInvalidId) {
    return "tree root has a parent";
  }
  std::vector<uint32_t> offsets;
  std::vector<int32_t> positions;
  if (auto error = MatrixPositions(parts.nodes, offsets, positions)) {
    return error;
  }
  if (parts.leaf_of_partition.size() != num_partitions) {
    return "leaf_of_partition has the wrong size";
  }
  for (NodeId leaf : parts.leaf_of_partition) {
    if (leaf < 0 || static_cast<size_t>(leaf) >= num_nodes ||
        !parts.nodes[leaf].is_leaf()) {
      return "leaf_of_partition references a non-leaf node";
    }
  }
  if (parts.door_leaves.size() != num_doors) {
    return "door_leaves has the wrong size";
  }
  for (const auto& entries : parts.door_leaves) {
    // Every door belongs to at least one leaf, and the span logic of
    // LeavesOfDoor assumes entry 0 is the valid one.
    if (entries[0].leaf == kInvalidId) {
      return "door_leaves has a door with no leaf";
    }
    for (const DoorLeafEntry& e : entries) {
      if (e.leaf == kInvalidId) continue;
      if (e.leaf < 0 || static_cast<size_t>(e.leaf) >= num_nodes ||
          !parts.nodes[e.leaf].is_leaf() ||
          e.row >= parts.nodes[e.leaf].doors.size()) {
        return "door_leaves references an invalid leaf row";
      }
    }
  }
  if (parts.is_access_door.size() != num_doors) {
    return "is_access_door has the wrong size";
  }
  if (parts.superior_offsets.size() != num_partitions + 1 ||
      parts.superior_offsets.front() != 0 ||
      parts.superior_offsets.back() != parts.superior_doors.size()) {
    return "superior-door CSR is inconsistent";
  }
  for (size_t p = 0; p < num_partitions; ++p) {
    if (parts.superior_offsets[p] > parts.superior_offsets[p + 1]) {
      return "superior-door offsets are not monotone";
    }
  }
  for (DoorId d : parts.superior_doors) {
    if (d < 0 || static_cast<size_t>(d) >= num_doors) {
      return "superior door id out of range";
    }
  }
  return std::nullopt;
}

IPTree IPTree::FromParts(const Venue& venue, const D2DGraph& graph,
                         Parts parts) {
  const std::optional<std::string> error = ValidateParts(venue, parts);
  VIPTREE_CHECK_MSG(!error.has_value(),
                    error.has_value() ? error->c_str() : "");
  return FromValidatedParts(venue, graph, std::move(parts));
}

IPTree IPTree::FromValidatedParts(const Venue& venue, const D2DGraph& graph,
                                  Parts parts) {
  IPTree tree;
  tree.venue_ = &venue;
  tree.graph_ = &graph;
  tree.nodes_ = std::move(parts.nodes);
  tree.root_ = parts.root;
  tree.num_leaves_ = parts.num_leaves;
  tree.leaf_of_partition_ = std::move(parts.leaf_of_partition);
  tree.door_leaves_ = std::move(parts.door_leaves);
  tree.is_access_door_ = std::move(parts.is_access_door);
  tree.superior_offsets_ = std::move(parts.superior_offsets);
  tree.superior_doors_ = std::move(parts.superior_doors);
  tree.FinishConstruction();
  return tree;
}

void IPTree::FinishConstruction() {
  const std::optional<std::string> error =
      MatrixPositions(nodes_, position_offsets_, positions_);
  VIPTREE_CHECK_MSG(!error.has_value(), error->c_str());
  const std::optional<std::string> runs = graph_->CheckRuns(*venue_);
  VIPTREE_CHECK_MSG(!runs.has_value(), runs->c_str());
}

IPTree::Parts IPTree::ToParts() const {
  Parts parts;
  parts.nodes = nodes_;
  parts.root = root_;
  parts.num_leaves = num_leaves_;
  parts.leaf_of_partition = leaf_of_partition_;
  parts.door_leaves = door_leaves_;
  parts.is_access_door = is_access_door_;
  parts.superior_offsets = superior_offsets_;
  parts.superior_doors = superior_doors_;
  return parts;
}

NodeId IPTree::Lca(NodeId a, NodeId b) const {
  while (a != b) {
    if (nodes_[a].level < nodes_[b].level) {
      a = nodes_[a].parent;
    } else if (nodes_[b].level < nodes_[a].level) {
      b = nodes_[b].parent;
    } else {
      a = nodes_[a].parent;
      b = nodes_[b].parent;
    }
    VIPTREE_DCHECK(a != kInvalidId && b != kInvalidId);
  }
  return a;
}

NodeId IPTree::ChildToward(NodeId ancestor, NodeId node) const {
  while (nodes_[node].parent != ancestor) {
    node = nodes_[node].parent;
    VIPTREE_DCHECK(node != kInvalidId);
  }
  return node;
}

NodeId IPTree::CommonLeaf(DoorId x, DoorId y) const {
  for (const DoorLeafEntry& lx : LeavesOfDoor(x)) {
    for (const DoorLeafEntry& ly : LeavesOfDoor(y)) {
      if (lx.leaf == ly.leaf) return lx.leaf;
    }
  }
  return kInvalidId;
}

int IPTree::IndexOf(Span<const DoorId> doors, DoorId d) {
  const auto it = std::lower_bound(doors.begin(), doors.end(), d);
  if (it == doors.end() || *it != d) return -1;
  return static_cast<int>(it - doors.begin());
}

float IPTree::LeafMatrixDist(const TreeNode& leaf, DoorId door,
                             DoorId access_door) const {
  const int r = IndexOf(leaf.doors, door);
  const int c = IndexOf(leaf.access_doors, access_door);
  VIPTREE_DCHECK(r >= 0 && c >= 0);
  return leaf.dist.at(r, c);
}

DoorId IPTree::LeafMatrixNextHop(const TreeNode& leaf, DoorId door,
                                 DoorId access_door) const {
  const int r = IndexOf(leaf.doors, door);
  const int c = IndexOf(leaf.access_doors, access_door);
  VIPTREE_DCHECK(r >= 0 && c >= 0);
  return leaf.next_hop.at(r, c);
}

IPTree::Stats IPTree::ComputeStats() const {
  Stats stats;
  stats.num_nodes = nodes_.size();
  stats.num_leaves = num_leaves_;
  stats.height = height();
  double total_ad = 0.0;
  double total_children = 0.0;
  size_t non_leaf = 0;
  for (const TreeNode& n : nodes_) {
    total_ad += static_cast<double>(n.access_doors.size());
    stats.max_access_doors =
        std::max(stats.max_access_doors, n.access_doors.size());
    if (!n.is_leaf()) {
      ++non_leaf;
      total_children += static_cast<double>(n.children.size());
    }
  }
  stats.avg_access_doors = total_ad / static_cast<double>(nodes_.size());
  stats.avg_children =
      non_leaf == 0 ? 0.0 : total_children / static_cast<double>(non_leaf);

  double total_superior = 0.0;
  for (PartitionId p = 0; p < static_cast<PartitionId>(venue_->NumPartitions());
       ++p) {
    const size_t s = SuperiorDoors(p).size();
    total_superior += static_cast<double>(s);
    stats.max_superior_doors = std::max(stats.max_superior_doors, s);
  }
  stats.avg_superior_doors =
      total_superior / static_cast<double>(venue_->NumPartitions());
  stats.memory_bytes = MemoryBytes();
  return stats;
}

// size()-based (not capacity()-based) throughout: the reported footprint is
// what the index addresses, never transient allocator slack.
uint64_t IPTree::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const TreeNode& n : nodes_) {
    bytes += sizeof(TreeNode);
    bytes += n.children.size() * sizeof(NodeId);
    bytes += n.partitions.size() * sizeof(PartitionId);
    bytes += n.doors.size() * sizeof(DoorId);
    bytes += n.access_doors.size() * sizeof(DoorId);
    bytes += n.matrix_doors.size() * sizeof(DoorId);
    bytes += n.dist.MemoryBytes();
    bytes += n.next_hop.MemoryBytes();
  }
  bytes += leaf_of_partition_.MemoryBytes();
  bytes += door_leaves_.MemoryBytes();
  bytes += is_access_door_.MemoryBytes();
  bytes += superior_offsets_.MemoryBytes();
  bytes += superior_doors_.MemoryBytes();
  bytes += position_offsets_.size() * sizeof(uint32_t);
  bytes += positions_.size() * sizeof(int32_t);
  return bytes;
}

}  // namespace viptree
