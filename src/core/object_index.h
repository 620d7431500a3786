// Indoor object embedding (§3.4): objects are attached to the leaf node of
// the partition containing them; every leaf keeps, per access door, the
// exact network distances from that access door to each of its objects
// (sorted, enabling early termination), plus subtree object counts so the
// branch-and-bound search can skip empty nodes (Alg. 5 line 10).
//
// Storage layout: both the per-leaf object lists and the per-(leaf, access
// door) distance rows live in single contiguous buffers with per-node
// offsets (CSR style). The kNN inner loop therefore scans one cache-friendly
// row per access door, MemoryBytes() is exact, and the whole index
// serializes as a handful of flat arrays.

#ifndef VIPTREE_CORE_OBJECT_INDEX_H_
#define VIPTREE_CORE_OBJECT_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ip_tree.h"
#include "common/span.h"
#include "common/storage.h"

namespace viptree {

class ObjectIndex {
 public:
  // The complete serializable state (everything but the tree reference).
  // The flat CSR buffers are Storage, so a zero-copy snapshot load can hand
  // in arena views; the object list itself stays an owned vector (it is
  // small and IndoorPoint carries padding, so it is field-encoded).
  struct Parts {
    std::vector<IndoorPoint> objects;
    // CSR of node id -> object ids (only leaves have entries).
    Storage<uint32_t> leaf_object_offsets;  // nodes + 1
    Storage<ObjectId> leaf_objects;
    // Contiguous [leaf][access-door column][in-leaf object] distances; one
    // base offset per node into the flat buffer.
    Storage<uint64_t> dist_offsets;  // nodes + 1
    Storage<double> door_dists;
    Storage<uint32_t> dfs_prefix;  // num_leaves + 1
  };

  // `objects` are indoor points; object ids are their indices.
  ObjectIndex(const IPTree& tree, std::vector<IndoorPoint> objects);

  // Structural check of `parts` against the tree (sizes, id ranges, CSR
  // consistency).
  static std::optional<std::string> ValidateParts(const IPTree& tree,
                                                  const Parts& parts);

  // Reconstructs the index from deserialized parts without recomputing any
  // door-to-object distance. Aborts on malformed input (run ValidateParts
  // first when the parts come from an untrusted file).
  static ObjectIndex FromParts(const IPTree& tree, Parts parts);

  // Same, for callers that have *just* run ValidateParts themselves (the
  // snapshot loader): skips the redundant validation pass.
  static ObjectIndex FromValidatedParts(const IPTree& tree, Parts parts);

  Parts ToParts() const;

  // The exact network distance from each access door of `leaf` to `p`, a
  // point inside the leaf, written to row[col * stride] in access-door
  // column order. This is the one definition of a packed row cell; the
  // live-object overlay scores its unmerged entries through it too, so an
  // object's row holds the same bits before and after a merge.
  static void FillDoorRow(const IPTree& tree, const TreeNode& leaf,
                          const IndoorPoint& p, double* row, size_t stride);

  size_t NumObjects() const { return objects_.size(); }
  const IndoorPoint& object(ObjectId o) const { return objects_[o]; }
  const std::vector<IndoorPoint>& objects() const { return objects_; }

  Span<const ObjectId> ObjectsInLeaf(NodeId leaf) const {
    return {leaf_objects_.data() + leaf_object_offsets_[leaf],
            leaf_objects_.data() + leaf_object_offsets_[leaf + 1]};
  }

  // The contiguous distance row of access door `col` of `leaf`, aligned
  // with ObjectsInLeaf (the kNN leaf-scan inner loop walks this span).
  Span<const double> DoorDistances(NodeId leaf, size_t col) const {
    const size_t count = leaf_object_offsets_[leaf + 1] -
                         leaf_object_offsets_[leaf];
    return {door_dists_.data() + dist_offsets_[leaf] + col * count, count};
  }

  // Number of objects in the subtree of `node`.
  size_t SubtreeCount(const TreeNode& node) const {
    return dfs_prefix_[node.leaf_end] - dfs_prefix_[node.leaf_begin];
  }

  uint64_t MemoryBytes() const;

 private:
  // Tag keeps the parts constructor out of overload resolution for
  // brace-initialized object lists.
  struct FromPartsTag {};
  ObjectIndex(FromPartsTag, const IPTree& tree, Parts parts);

  const IPTree& tree_;
  std::vector<IndoorPoint> objects_;
  Storage<uint32_t> leaf_object_offsets_;
  Storage<ObjectId> leaf_objects_;
  Storage<uint64_t> dist_offsets_;
  Storage<double> door_dists_;
  Storage<uint32_t> dfs_prefix_;  // objects in leaves with dfs index < i
};

}  // namespace viptree

#endif  // VIPTREE_CORE_OBJECT_INDEX_H_
