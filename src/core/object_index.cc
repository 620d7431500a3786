#include "core/object_index.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/span.h"

namespace viptree {

ObjectIndex::ObjectIndex(const IPTree& tree, std::vector<IndoorPoint> objects)
    : tree_(tree), objects_(std::move(objects)) {
  const size_t num_nodes = tree.nodes().size();

  // CSR of leaf -> objects (counting sort by leaf id; objects of one leaf
  // keep ascending object-id order, as before).
  std::vector<uint32_t> count(num_nodes, 0);
  for (const IndoorPoint& obj : objects_) {
    ++count[tree.LeafOfPartition(obj.partition)];
  }
  leaf_object_offsets_.assign(num_nodes + 1, 0);
  for (size_t n = 0; n < num_nodes; ++n) {
    leaf_object_offsets_[n + 1] = leaf_object_offsets_[n] + count[n];
  }
  leaf_objects_.resize(objects_.size());
  std::vector<uint32_t> cursor(leaf_object_offsets_.begin(),
                               leaf_object_offsets_.end() - 1);
  for (ObjectId o = 0; o < static_cast<ObjectId>(objects_.size()); ++o) {
    leaf_objects_[cursor[tree.LeafOfPartition(objects_[o].partition)]++] = o;
  }

  // One contiguous distance row per (leaf, access door), rows of one leaf
  // adjacent: dist_offsets_[leaf] + col * count + i.
  dist_offsets_.assign(num_nodes + 1, 0);
  for (size_t n = 0; n < num_nodes; ++n) {
    const TreeNode& node = tree.node(static_cast<NodeId>(n));
    const uint64_t cells =
        node.is_leaf()
            ? static_cast<uint64_t>(node.access_doors.size()) * count[n]
            : 0;
    dist_offsets_[n + 1] = dist_offsets_[n] + cells;
  }
  door_dists_.assign(dist_offsets_.back(), kInfDistance);

  for (const TreeNode& node : tree.nodes()) {
    if (!node.is_leaf()) continue;
    const Span<const ObjectId> objs = ObjectsInLeaf(node.id);
    double* base = door_dists_.mutable_data() + dist_offsets_[node.id];
    for (size_t i = 0; i < objs.size(); ++i) {
      FillDoorRow(tree, node, objects_[objs[i]], base + i, objs.size());
    }
  }

  // Subtree counts via leaf DFS prefix sums.
  std::vector<uint32_t> count_at_dfs(tree.num_leaves(), 0);
  for (const TreeNode& node : tree.nodes()) {
    if (node.is_leaf()) count_at_dfs[node.leaf_begin] = count[node.id];
  }
  dfs_prefix_.assign(tree.num_leaves() + 1, 0);
  for (size_t i = 0; i < tree.num_leaves(); ++i) {
    dfs_prefix_[i + 1] = dfs_prefix_[i] + count_at_dfs[i];
  }
  VIPTREE_CHECK(dfs_prefix_.back() == objects_.size());
}

void ObjectIndex::FillDoorRow(const IPTree& tree, const TreeNode& leaf,
                              const IndoorPoint& p, double* row,
                              size_t stride) {
  const Venue& venue = tree.venue();
  const size_t num_cols = leaf.access_doors.size();
  for (size_t col = 0; col < num_cols; ++col) {
    const DoorId a = leaf.access_doors[col];
    row[col * stride] = venue.DoorTouches(a, p.partition)
                            ? venue.DistanceToDoor(p, a)
                            : kInfDistance;
  }
  // Min over p's doors u of M[u][a] + |p u|, one leaf-matrix row per door
  // (the matrix's columns are the leaf's access doors, in column order).
  for (DoorId u : venue.DoorsOf(p.partition)) {
    const int r = IPTree::IndexOf(leaf.doors, u);
    VIPTREE_DCHECK(r >= 0);
    const Span<const float> cells = leaf.dist.row(static_cast<size_t>(r));
    const double to_u = venue.DistanceToDoor(p, u);
    for (size_t col = 0; col < num_cols; ++col) {
      row[col * stride] = std::min(row[col * stride], cells[col] + to_u);
    }
  }
}

ObjectIndex::ObjectIndex(FromPartsTag, const IPTree& tree, Parts parts)
    : tree_(tree),
      objects_(std::move(parts.objects)),
      leaf_object_offsets_(std::move(parts.leaf_object_offsets)),
      leaf_objects_(std::move(parts.leaf_objects)),
      dist_offsets_(std::move(parts.dist_offsets)),
      door_dists_(std::move(parts.door_dists)),
      dfs_prefix_(std::move(parts.dfs_prefix)) {}

std::optional<std::string> ObjectIndex::ValidateParts(const IPTree& tree,
                                                      const Parts& parts) {
  const size_t num_nodes = tree.nodes().size();
  const size_t num_objects = parts.objects.size();
  for (const IndoorPoint& obj : parts.objects) {
    if (obj.partition < 0 ||
        static_cast<size_t>(obj.partition) >= tree.venue().NumPartitions()) {
      return "object in unknown partition";
    }
  }
  if (parts.leaf_object_offsets.size() != num_nodes + 1 ||
      parts.leaf_object_offsets.front() != 0 ||
      parts.leaf_object_offsets.back() != parts.leaf_objects.size() ||
      parts.leaf_objects.size() != num_objects) {
    return "object-index leaf CSR is inconsistent";
  }
  if (parts.dist_offsets.size() != num_nodes + 1 ||
      parts.dist_offsets.front() != 0 ||
      parts.dist_offsets.back() != parts.door_dists.size()) {
    return "object-index distance CSR is inconsistent";
  }
  for (size_t n = 0; n < num_nodes; ++n) {
    if (parts.leaf_object_offsets[n] > parts.leaf_object_offsets[n + 1]) {
      return "object-index leaf offsets are not monotone";
    }
    if (parts.dist_offsets[n] > parts.dist_offsets[n + 1]) {
      return "object-index distance offsets are not monotone";
    }
    const TreeNode& node = tree.node(static_cast<NodeId>(n));
    const uint64_t objs =
        parts.leaf_object_offsets[n + 1] - parts.leaf_object_offsets[n];
    const uint64_t cells = parts.dist_offsets[n + 1] - parts.dist_offsets[n];
    if (!node.is_leaf() && objs != 0) {
      return "object-index attaches objects to a non-leaf node";
    }
    const uint64_t expected =
        node.is_leaf() ? objs * node.access_doors.size() : 0;
    if (cells != expected) {
      return "object-index distance row count mismatches the leaf";
    }
  }
  // leaf_objects must be a permutation of all object ids: a duplicated or
  // dropped id would silently distort every kNN/range answer.
  std::vector<uint8_t> seen(num_objects, 0);
  for (ObjectId o : parts.leaf_objects) {
    if (o < 0 || static_cast<size_t>(o) >= num_objects) {
      return "object-index references an unknown object";
    }
    if (seen[o] != 0) {
      return "object-index lists object " + std::to_string(o) + " twice";
    }
    seen[o] = 1;
  }
  if (parts.dfs_prefix.size() != tree.num_leaves() + 1 ||
      parts.dfs_prefix.front() != 0 ||
      parts.dfs_prefix.back() != num_objects) {
    return "object-index dfs prefix sums are inconsistent";
  }
  return std::nullopt;
}

ObjectIndex ObjectIndex::FromParts(const IPTree& tree, Parts parts) {
  const std::optional<std::string> error = ValidateParts(tree, parts);
  VIPTREE_CHECK_MSG(!error.has_value(),
                    error.has_value() ? error->c_str() : "");
  return ObjectIndex(FromPartsTag{}, tree, std::move(parts));
}

ObjectIndex ObjectIndex::FromValidatedParts(const IPTree& tree, Parts parts) {
  return ObjectIndex(FromPartsTag{}, tree, std::move(parts));
}

std::vector<IndoorPoint> ObjectIndex::objects() const {
  if (blocks_.empty()) return objects_;
  std::vector<IndoorPoint> points(NumObjects());
  for (const TreeNode& node : tree_.nodes()) {
    if (!node.is_leaf()) continue;
    const Span<const ObjectId> ids = ObjectsInLeaf(node.id);
    for (size_t i = 0; i < ids.size(); ++i) {
      points[ids[i]] = PointInLeaf(node.id, i);
    }
  }
  return points;
}

ObjectIndex::Parts ObjectIndex::ToParts() const {
  Parts parts;
  parts.objects = objects();
  parts.dfs_prefix = dfs_prefix_;
  if (blocks_.empty()) {
    parts.leaf_object_offsets = leaf_object_offsets_;
    parts.leaf_objects = leaf_objects_;
    parts.dist_offsets = dist_offsets_;
    parts.door_dists = door_dists_;
    return parts;
  }
  // Concatenate the leaves in node order: the flat layout the constructor
  // builds.
  const size_t num_nodes = tree_.nodes().size();
  std::vector<uint32_t> object_offsets(num_nodes + 1, 0);
  std::vector<uint64_t> dist_offsets(num_nodes + 1, 0);
  std::vector<ObjectId> leaf_objects;
  std::vector<double> door_dists;
  leaf_objects.reserve(NumObjects());
  for (const TreeNode& node : tree_.nodes()) {
    if (node.is_leaf()) {
      const Span<const ObjectId> ids = ObjectsInLeaf(node.id);
      leaf_objects.insert(leaf_objects.end(), ids.begin(), ids.end());
      for (size_t col = 0; col < node.access_doors.size(); ++col) {
        const Span<const double> row = DoorDistances(node.id, col);
        door_dists.insert(door_dists.end(), row.begin(), row.end());
      }
    }
    object_offsets[node.id + 1] = static_cast<uint32_t>(leaf_objects.size());
    dist_offsets[node.id + 1] = door_dists.size();
  }
  parts.leaf_object_offsets = std::move(object_offsets);
  parts.leaf_objects = std::move(leaf_objects);
  parts.dist_offsets = std::move(dist_offsets);
  parts.door_dists = std::move(door_dists);
  return parts;
}

ObjectIndex ObjectIndex::Merge(std::shared_ptr<const ObjectIndex> prev,
                               std::vector<Arrival> arrivals,
                               MergeStats* stats) {
  VIPTREE_CHECK(prev != nullptr);
  const IPTree& tree = prev->tree_;
  ObjectIndex next(FromPartsTag{}, tree, Parts{});
  if (prev->blocks_.empty()) {
    next.root_ = prev;
    next.blocks_.resize(tree.nodes().size());
    next.root_leaves_ = tree.num_leaves();
  } else {
    next.root_ = prev->root_;
    next.blocks_ = prev->blocks_;
    next.root_leaves_ = prev->root_leaves_;
  }

  // Arrivals grouped by destination leaf, ascending ids within each; the
  // rebuilt leaves are those destinations plus every leaf an arrival left.
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.id < b.id; });
  std::vector<std::pair<NodeId, uint32_t>> incoming;  // (leaf, arrival)
  std::vector<NodeId> rebuilt;
  incoming.reserve(arrivals.size());
  for (uint32_t a = 0; a < arrivals.size(); ++a) {
    const NodeId to = tree.LeafOfPartition(arrivals[a].point.partition);
    incoming.emplace_back(to, a);
    rebuilt.push_back(to);
    if (arrivals[a].from_leaf != kInvalidId) {
      rebuilt.push_back(arrivals[a].from_leaf);
    }
  }
  std::sort(incoming.begin(), incoming.end());
  std::sort(rebuilt.begin(), rebuilt.end());
  rebuilt.erase(std::unique(rebuilt.begin(), rebuilt.end()), rebuilt.end());
  std::vector<ObjectId> arrived_ids(arrivals.size());
  for (size_t a = 0; a < arrivals.size(); ++a) arrived_ids[a] = arrivals[a].id;
  const auto stays = [&arrived_ids](ObjectId o) {
    return !std::binary_search(arrived_ids.begin(), arrived_ids.end(), o);
  };

  // Each rebuilt leaf: its stayers (prev's ids that arrived nowhere)
  // merged by id with its incoming arrivals. A source is an old in-leaf
  // index, or ~a for arrival a.
  std::vector<int64_t> sources;
  auto in = incoming.begin();
  for (const NodeId leaf : rebuilt) {
    const TreeNode& node = tree.node(leaf);
    const Span<const ObjectId> old_ids = prev->ObjectsInLeaf(leaf);
    sources.clear();
    size_t i = 0;
    for (; in != incoming.end() && in->first == leaf; ++in) {
      const ObjectId id = arrivals[in->second].id;
      for (; i < old_ids.size() && old_ids[i] < id; ++i) {
        if (stays(old_ids[i])) sources.push_back(static_cast<int64_t>(i));
      }
      sources.push_back(~static_cast<int64_t>(in->second));
    }
    for (; i < old_ids.size(); ++i) {
      if (stays(old_ids[i])) sources.push_back(static_cast<int64_t>(i));
    }

    auto block = std::make_shared<LeafBlock>();
    const size_t count = sources.size();
    const size_t num_cols = node.access_doors.size();
    block->ids.resize(count);
    block->points.resize(count);
    block->rows.resize(num_cols * count);
    for (size_t k = 0; k < count; ++k) {
      if (sources[k] >= 0) {
        block->ids[k] = old_ids[sources[k]];
        block->points[k] = prev->PointInLeaf(leaf, sources[k]);
      } else {
        block->ids[k] = arrivals[~sources[k]].id;
        block->points[k] = arrivals[~sources[k]].point;
      }
    }
    for (size_t col = 0; col < num_cols; ++col) {
      const double* old_row = prev->DoorDistances(leaf, col).data();
      double* row = block->rows.data() + col * count;
      for (size_t k = 0; k < count; ++k) {
        if (sources[k] >= 0) {
          row[k] = old_row[sources[k]];
        } else if (const double* given = arrivals[~sources[k]].row) {
          row[k] = given[col];
        }
      }
    }
    for (size_t k = 0; k < count; ++k) {
      if (sources[k] >= 0 || arrivals[~sources[k]].row != nullptr) continue;
      FillDoorRow(tree, node, block->points[k], block->rows.data() + k,
                  count);
      if (stats != nullptr) ++stats->rows_filled;
    }
    if (next.blocks_[leaf] == nullptr) --next.root_leaves_;
    next.blocks_[leaf] = std::move(block);
  }
  if (stats != nullptr) stats->leaves_rebuilt += rebuilt.size();

  // Subtree counts: prev's leaf sizes with the rebuilt ones replaced.
  std::vector<uint32_t> prefix(prev->dfs_prefix_.begin(),
                               prev->dfs_prefix_.end());
  for (size_t i = tree.num_leaves(); i > 0; --i) prefix[i] -= prefix[i - 1];
  for (const NodeId leaf : rebuilt) {
    prefix[tree.node(leaf).leaf_begin + 1] =
        static_cast<uint32_t>(next.blocks_[leaf]->ids.size());
  }
  for (size_t i = 0; i < tree.num_leaves(); ++i) prefix[i + 1] += prefix[i];
  next.dfs_prefix_ = std::move(prefix);
  size_t added = 0;
  for (const Arrival& arrival : arrivals) {
    added += arrival.from_leaf == kInvalidId ? 1 : 0;
  }
  VIPTREE_CHECK(next.NumObjects() == prev->NumObjects() + added);
  // The root goes once no leaf reads from it any more.
  if (next.root_leaves_ == 0) next.root_.reset();
  return next;
}

uint64_t ObjectIndex::MemoryBytes() const {
  uint64_t bytes = objects_.size() * sizeof(IndoorPoint) +
                   leaf_object_offsets_.MemoryBytes() +
                   leaf_objects_.MemoryBytes() + dist_offsets_.MemoryBytes() +
                   door_dists_.MemoryBytes() + dfs_prefix_.MemoryBytes();
  if (blocks_.empty()) return bytes;
  if (root_ != nullptr) bytes += root_->MemoryBytes();
  bytes += blocks_.size() * sizeof(blocks_[0]);
  for (const std::shared_ptr<const LeafBlock>& block : blocks_) {
    if (block == nullptr) continue;
    bytes += sizeof(LeafBlock) + block->ids.size() * sizeof(ObjectId) +
             block->points.size() * sizeof(IndoorPoint) +
             block->rows.size() * sizeof(double);
  }
  return bytes;
}

}  // namespace viptree
