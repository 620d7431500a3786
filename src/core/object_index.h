// Indoor object embedding (§3.4): objects are attached to the leaf node of
// the partition containing them; every leaf keeps, per access door, the
// exact network distances from that access door to each of its objects
// (sorted, enabling early termination), plus subtree object counts so the
// branch-and-bound search can skip empty nodes (Alg. 5 line 10).
//
// Storage layout. An index that is built from positions or loaded from a
// snapshot is *flat*: the per-leaf object lists and the per-(leaf, access
// door) distance rows live in single contiguous buffers with per-node
// offsets (CSR style), so the kNN inner loop scans one cache-friendly row
// per access door, MemoryBytes() is exact and the whole index serializes
// as a handful of flat arrays. An index produced by Merge() is *merged*:
// it shares a flat root, and every leaf rebuilt since that root reads from
// its own refcounted block (ascending ids, their points, column-major
// rows) instead. Leaves no merge touched are shared by pointer, so a merge
// costs what the moved objects' leaves hold, not what the venue holds. The
// read API (ObjectsInLeaf, PointInLeaf, DoorDistances, SubtreeCount) is the
// same for both forms, and ToParts() of a merged index is byte-identical to
// the flat index built from the same positions.

#ifndef VIPTREE_CORE_OBJECT_INDEX_H_
#define VIPTREE_CORE_OBJECT_INDEX_H_

#include <cstdint>
#include <memory>
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

  // The flat parts of this index; for a merged index, exactly the parts
  // ObjectIndex(tree, positions) would hold for the same positions.
  Parts ToParts() const;

  // An object whose position changed since the index a Merge starts from:
  // moved (removed ones included, at their last position) or added.
  struct Arrival {
    ObjectId id = kInvalidId;
    IndoorPoint point;    // its current position
    NodeId from_leaf = kInvalidId;  // its leaf in that index; none if added
    // FillDoorRow(point) with stride 1 when the caller has it, else null.
    const double* row = nullptr;
  };
  // Work counters, added to by every Merge they are passed to.
  struct MergeStats {
    size_t leaves_rebuilt = 0;
    size_t rows_filled = 0;  // FillDoorRow calls
  };

  // The index of `prev`'s objects after `arrivals` (each id at most once;
  // added ids continue prev's id range densely). Byte-identical (ToParts,
  // SubtreeCount) to ObjectIndex(tree, positions) over the new positions.
  // Only the from- and to-leaves of the arrivals are rebuilt: stayers'
  // cells are copied, arrivals' rows taken from `row` or FillDoorRow. Every
  // other leaf is shared with `prev`, so the cost is O(tree nodes + cells
  // of the rebuilt leaves), independent of the number of objects.
  static ObjectIndex Merge(std::shared_ptr<const ObjectIndex> prev,
                           std::vector<Arrival> arrivals,
                           MergeStats* stats = nullptr);

  // The exact network distance from each access door of `leaf` to `p`, a
  // point inside the leaf, written to row[col * stride] in access-door
  // column order. This is the one definition of a packed row cell; the
  // live-object overlay scores its unmerged entries through it too, so an
  // object's row holds the same bits before and after a merge.
  static void FillDoorRow(const IPTree& tree, const TreeNode& leaf,
                          const IndoorPoint& p, double* row, size_t stride);

  // Every allocated id, tombstones included.
  size_t NumObjects() const { return dfs_prefix_.back(); }
  // Object positions indexed by id (materialized: O(objects)).
  std::vector<IndoorPoint> objects() const;

  // Ids in `leaf`, ascending.
  Span<const ObjectId> ObjectsInLeaf(NodeId leaf) const {
    if (const LeafBlock* block = Block(leaf)) return block->ids;
    const ObjectIndex& flat = Flat();
    return {flat.leaf_objects_.data() + flat.leaf_object_offsets_[leaf],
            flat.leaf_objects_.data() + flat.leaf_object_offsets_[leaf + 1]};
  }

  // The position of ObjectsInLeaf(leaf)[i].
  const IndoorPoint& PointInLeaf(NodeId leaf, size_t i) const {
    if (const LeafBlock* block = Block(leaf)) return block->points[i];
    const ObjectIndex& flat = Flat();
    return flat.objects_[flat.leaf_objects_[flat.leaf_object_offsets_[leaf] +
                                            i]];
  }

  // The contiguous distance row of access door `col` of `leaf`, aligned
  // with ObjectsInLeaf (the kNN leaf-scan inner loop walks this span).
  Span<const double> DoorDistances(NodeId leaf, size_t col) const {
    if (const LeafBlock* block = Block(leaf)) {
      const size_t count = block->ids.size();
      return {block->rows.data() + col * count, count};
    }
    const ObjectIndex& flat = Flat();
    const size_t count = flat.leaf_object_offsets_[leaf + 1] -
                         flat.leaf_object_offsets_[leaf];
    return {flat.door_dists_.data() + flat.dist_offsets_[leaf] + col * count,
            count};
  }

  // Number of objects in the subtree of `node`.
  size_t SubtreeCount(const TreeNode& node) const {
    return dfs_prefix_[node.leaf_end] - dfs_prefix_[node.leaf_begin];
  }

  uint64_t MemoryBytes() const;

 private:
  // One leaf rebuilt by a merge.
  struct LeafBlock {
    std::vector<ObjectId> ids;  // ascending
    std::vector<IndoorPoint> points;
    std::vector<double> rows;  // rows[col * ids.size() + i]
  };

  // Tag keeps the parts constructor out of overload resolution for
  // brace-initialized object lists.
  struct FromPartsTag {};
  ObjectIndex(FromPartsTag, const IPTree& tree, Parts parts);

  const LeafBlock* Block(NodeId leaf) const {
    return blocks_.empty() ? nullptr : blocks_[leaf].get();
  }
  // The flat index the leaves without a block read from.
  const ObjectIndex& Flat() const { return root_ != nullptr ? *root_ : *this; }

  const IPTree& tree_;
  // Merged indexes only: the flat root (released once every leaf has a
  // block), one block per node, null where the root's leaf still holds,
  // and the number of such leaves.
  std::shared_ptr<const ObjectIndex> root_;
  std::vector<std::shared_ptr<const LeafBlock>> blocks_;
  size_t root_leaves_ = 0;
  // Flat indexes only (empty in a merged one).
  std::vector<IndoorPoint> objects_;
  Storage<uint32_t> leaf_object_offsets_;
  Storage<ObjectId> leaf_objects_;
  Storage<uint64_t> dist_offsets_;
  Storage<double> door_dists_;
  // Both forms: objects in leaves with dfs index < i.
  Storage<uint32_t> dfs_prefix_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_OBJECT_INDEX_H_
