#include "core/vip_tree.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/tree_builder.h"
#include "graph/dijkstra.h"
#include "common/span.h"

namespace viptree {

VIPTree VIPTree::Build(const Venue& venue, const D2DGraph& graph,
                       const IPTreeOptions& options) {
  return Extend(IPTree::Build(venue, graph, options));
}

VIPTree VIPTree::Extend(IPTree base) {
  VIPTree vip;
  vip.base_ = std::move(base);
  const IPTree& tree = vip.base_;

  vip.ext_.resize(tree.nodes().size());

  // Leaves in DFS order so a subtree's doors are the union of a contiguous
  // leaf range.
  std::vector<NodeId> leaf_at_index(tree.num_leaves());
  for (const TreeNode& n : tree.nodes()) {
    if (n.is_leaf()) leaf_at_index[n.leaf_begin] = n.id;
  }

  // Shape every matrix first (the searches below write cells in place) and
  // group the (node, column) cells by access door: a door is an access door
  // of a chain of ancestors and of the node across it, and one search from
  // it serves every one of those columns.
  struct Column {
    NodeId node;
    uint32_t col;
  };
  std::vector<std::vector<Column>> columns_of(tree.venue().NumDoors());
  std::vector<DoorId> sources;
  for (const TreeNode& node : tree.nodes()) {
    if (node.is_leaf()) continue;  // the IP leaf matrix already has the shape
    ExtMatrix& ext = vip.ext_[node.id];
    std::vector<DoorId> subtree_doors;
    for (uint32_t li = node.leaf_begin; li < node.leaf_end; ++li) {
      const TreeNode& leaf = tree.node(leaf_at_index[li]);
      subtree_doors.insert(subtree_doors.end(), leaf.doors.begin(),
                           leaf.doors.end());
    }
    std::sort(subtree_doors.begin(), subtree_doors.end());
    subtree_doors.erase(
        std::unique(subtree_doors.begin(), subtree_doors.end()),
        subtree_doors.end());
    ext.doors = std::move(subtree_doors);

    ext.dist = FlatMatrix<float>(ext.doors.size(), node.access_doors.size(),
                                 0.0f);
    ext.next_hop = FlatMatrix<DoorId>(ext.doors.size(),
                                      node.access_doors.size(), kInvalidId);
    for (size_t col = 0; col < node.access_doors.size(); ++col) {
      const DoorId a = node.access_doors[col];
      if (columns_of[a].empty()) sources.push_back(a);
      columns_of[a].push_back({node.id, static_cast<uint32_t>(col)});
    }
  }

  // One search per access door, resumed node by node: the pop sequence from
  // `a` does not depend on where a search stops, and a settled door's
  // distance and parent never change, so each column holds the bits a
  // search stopped at that node's own doors would give.
  ForEachSource(tree.graph(), sources.size(), ConstructionWorkers(),
                [&](size_t i, DijkstraEngine& engine) {
                  const DoorId a = sources[i];
                  engine.Start(a);
                  for (const Column& column : columns_of[a]) {
                    ExtMatrix& ext = vip.ext_[column.node];
                    FillMatrixColumn(tree, column.node, ext.doors, column.col,
                                     engine, ext.dist, ext.next_hop);
                  }
                });
  return vip;
}

std::optional<std::string> VIPTree::ValidateParts(const IPTree& base,
                                                  const Parts& parts,
                                                  IPTree::ValidationLevel level) {
  if (parts.ext.size() != base.nodes().size()) {
    return "extended-matrix array has " + std::to_string(parts.ext.size()) +
           " entries for " + std::to_string(base.nodes().size()) + " nodes";
  }
  for (const TreeNode& node : base.nodes()) {
    const ExtMatrix& ext = parts.ext[node.id];
    const std::string where = "extended matrix of node " +
                              std::to_string(node.id);
    if (node.is_leaf()) {
      if (!ext.doors.empty() || !ext.dist.empty() || !ext.next_hop.empty()) {
        return where + " must be empty for a leaf";
      }
      continue;
    }
    for (DoorId d : ext.doors) {
      if (d < 0 || static_cast<size_t>(d) >= base.venue().NumDoors()) {
        return where + " has an out-of-range door";
      }
    }
    if (!std::is_sorted(ext.doors.begin(), ext.doors.end())) {
      return where + " rows are not sorted";
    }
    if (ext.dist.rows() != ext.doors.size() ||
        ext.dist.cols() != node.access_doors.size() ||
        ext.next_hop.rows() != ext.dist.rows() ||
        ext.next_hop.cols() != ext.dist.cols()) {
      return where + " has the wrong shape";
    }
    if (level != IPTree::ValidationLevel::kFull) continue;
    // Same cell-value rules as the base matrices (see IPTree validation):
    // next-hop entries are array indices naming an intermediate door.
    const size_t num_doors = base.venue().NumDoors();
    for (size_t r = 0; r < ext.dist.rows(); ++r) {
      for (size_t c = 0; c < ext.dist.cols(); ++c) {
        if (!(ext.dist.at(r, c) >= 0.0f) ||
            ext.dist.at(r, c) == std::numeric_limits<float>::infinity()) {
          return where + " has a negative, NaN or infinite distance";
        }
        const DoorId hop = ext.next_hop.at(r, c);
        if (hop == kInvalidId) continue;
        if (hop < 0 || static_cast<size_t>(hop) >= num_doors ||
            hop == ext.doors[r] || hop == node.access_doors[c]) {
          return where + " has an invalid next-hop entry";
        }
      }
    }
  }
  return std::nullopt;
}

VIPTree VIPTree::FromParts(IPTree base, Parts parts) {
  const std::optional<std::string> error = ValidateParts(base, parts);
  VIPTREE_CHECK_MSG(!error.has_value(),
                    error.has_value() ? error->c_str() : "");
  return FromValidatedParts(std::move(base), std::move(parts));
}

VIPTree VIPTree::FromValidatedParts(IPTree base, Parts parts) {
  VIPTree vip;
  vip.base_ = std::move(base);
  vip.ext_ = std::move(parts.ext);
  return vip;
}

VIPTree::Parts VIPTree::ToParts() const {
  Parts parts;
  parts.ext = ext_;
  return parts;
}

Span<const DoorId> VIPTree::ExtDoors(NodeId n) const {
  const TreeNode& node = base_.node(n);
  if (node.is_leaf()) return node.doors;
  return ext_[n].doors;
}

int VIPTree::ExtRowOf(NodeId n, DoorId d) const {
  return IPTree::IndexOf(ExtDoors(n), d);
}

float VIPTree::ExtDist(NodeId n, DoorId d, size_t col) const {
  const int row = ExtRowOf(n, d);
  VIPTREE_DCHECK(row >= 0);
  return ExtDistMatrix(n).at(row, col);
}

const FlatMatrix<float>& VIPTree::ExtDistMatrix(NodeId n) const {
  const TreeNode& node = base_.node(n);
  if (node.is_leaf()) return node.dist;
  return ext_[n].dist;
}

DoorId VIPTree::ExtNextHop(NodeId n, size_t row, size_t col) const {
  const TreeNode& node = base_.node(n);
  if (node.is_leaf()) return node.next_hop.at(row, col);
  return ext_[n].next_hop.at(row, col);
}

uint64_t VIPTree::MemoryBytes() const {
  uint64_t bytes = base_.MemoryBytes();
  for (const ExtMatrix& e : ext_) {
    bytes += e.doors.MemoryBytes();
    bytes += e.dist.MemoryBytes();
    bytes += e.next_hop.MemoryBytes();
  }
  return bytes;
}

}  // namespace viptree
