// Part of the reproduction of "VIP-Tree: An Effective Index for Indoor
// Spatial Queries" (Shao, Cheema, Taniar, Lu — PVLDB 10(4), 2016); all
// section/algorithm references below point into that paper.
//
// The Vivid IP-Tree (VIP-Tree) of §2.2: an IP-Tree that additionally
// materializes, for every door d and every access door a of every ancestor
// node N of Leaf(d), the distance dist(d, a) and the next-hop door on the
// shortest path.
//
// Storage layout: one "extended matrix" per non-leaf node N with rows = all
// doors inside N's subtree and columns = AD(N). A door's entry for ancestor
// N is then one O(1) lookup, which is exactly the paper's per-door
// materialization with O(rho * D * log_f M) total extra space. (At leaf
// level the IP leaf matrix already has this shape, so leaves add nothing.)
//
// Next-hop semantics (§3.3): first door on the shortest path when the path
// stays inside N; first *global access* door when it leaves N; kInvalidId
// when there is no intermediate door.

#ifndef VIPTREE_CORE_VIP_TREE_H_
#define VIPTREE_CORE_VIP_TREE_H_

#include <optional>
#include <string>
#include <vector>

#include "core/ip_tree.h"
#include "common/span.h"
#include "common/storage.h"

namespace viptree {

class VIPTree {
 public:
  // One §2.2 extended matrix (rows = all doors of the node's subtree,
  // columns = the node's access doors). Public so snapshots can serialize
  // the materialization verbatim. All three buffers are Storage-backed, so
  // a zero-copy snapshot load can alias them into the mapped arena.
  struct ExtMatrix {
    Storage<DoorId> doors;  // sorted rows
    FlatMatrix<float> dist;
    FlatMatrix<DoorId> next_hop;
  };

  // The serializable state on top of the base IP-Tree: one extended matrix
  // per node id (empty for leaves, which reuse the IP leaf matrix).
  struct Parts {
    std::vector<ExtMatrix> ext;
  };

  static VIPTree Build(const Venue& venue, const D2DGraph& graph,
                       const IPTreeOptions& options = {});

  // Takes ownership of an already-built IP-Tree and adds the §2.2
  // materialization (used by benchmarks that compare both trees on the
  // same base).
  static VIPTree Extend(IPTree base);

  // Structural check of `parts` against an already-validated base tree.
  // The level has the same meaning as IPTree::ValidateParts: kStructure
  // skips only the per-cell matrix sweep.
  static std::optional<std::string> ValidateParts(
      const IPTree& base, const Parts& parts,
      IPTree::ValidationLevel level = IPTree::ValidationLevel::kFull);

  // Reassembles a VIP-Tree from a reconstructed base and its deserialized
  // materialization (no Dijkstra runs). Aborts on malformed input (run
  // ValidateParts first when the parts come from an untrusted file).
  static VIPTree FromParts(IPTree base, Parts parts);

  // Same, for callers that have *just* run ValidateParts themselves (the
  // snapshot loader): skips the redundant validation pass.
  static VIPTree FromValidatedParts(IPTree base, Parts parts);

  Parts ToParts() const;

  VIPTree(const VIPTree&) = delete;
  VIPTree& operator=(const VIPTree&) = delete;
  VIPTree(VIPTree&&) = default;

  const IPTree& base() const { return base_; }

  // Row door set of node `n`'s extended matrix: all doors in the subtree,
  // sorted. For leaves this aliases TreeNode::doors.
  Span<const DoorId> ExtDoors(NodeId n) const;

  // Distance for (door `d`, access door index `col` of node `n`). `d` must
  // be a door inside n's subtree.
  float ExtDist(NodeId n, DoorId d, size_t col) const;

  // Row index of door `d` in node `n`'s extended matrix; -1 if absent.
  int ExtRowOf(NodeId n, DoorId d) const;

  // Next hop for (row `row` of node `n`'s extended matrix, as ExtRowOf
  // found it; access door index `col` of `n`).
  DoorId ExtNextHop(NodeId n, size_t row, size_t col) const;

  // Node `n`'s extended distance matrix (the IP leaf matrix for a leaf):
  // rows ExtDoors(n), columns AD(n). The §3.1 descent reads it a row per
  // seed door.
  const FlatMatrix<float>& ExtDistMatrix(NodeId n) const;

  uint64_t MemoryBytes() const;

 private:
  VIPTree() = default;

  IPTree base_;
  std::vector<ExtMatrix> ext_;  // indexed by NodeId; unused for leaves
};

}  // namespace viptree

#endif  // VIPTREE_CORE_VIP_TREE_H_
