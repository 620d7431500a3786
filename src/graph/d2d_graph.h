// The door-to-door (D2D) graph of Yang et al. [25], §1.2.2 of the paper:
// every door is a vertex and two doors are connected by a weighted edge if
// they are attached to the same indoor partition, the weight being the
// walking distance through that partition.
//
// Each edge is labelled with the partition it traverses; the label is what
// lets index construction decide whether a shortest path stays inside a tree
// node (the next-hop rule of §2.1.1) without re-deriving geometry.
//
// The graph is stored in CSR form. Two doors sharing both of their
// partitions produce two parallel edges (one per partition); Dijkstra
// naturally picks the cheaper one.

#ifndef VIPTREE_GRAPH_D2D_GRAPH_H_
#define VIPTREE_GRAPH_D2D_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/venue.h"
#include "common/span.h"
#include "common/storage.h"

namespace viptree {

struct D2DEdge {
  DoorId to = kInvalidId;
  float weight = 0.0f;
  PartitionId via = kInvalidId;  // the partition this edge walks through
};

// Edges are persisted as raw bytes in format-v2 snapshots and aliased
// straight out of the mapped file, so the layout must stay padding-free.
static_assert(sizeof(D2DEdge) == 12, "D2DEdge must stay a packed 12 bytes");

// An explicitly weighted door-to-door connection, for building a D2D graph
// whose weights are not derived from geometry (imported venues, the paper's
// running example with hand-specified distances, travel-time models).
struct ExplicitD2DEdge {
  DoorId u = kInvalidId;
  DoorId v = kInvalidId;
  float weight = 0.0f;
  PartitionId via = kInvalidId;
};

class D2DGraph {
 public:
  // The complete serializable state: the CSR arrays exactly as stored, so a
  // reconstructed graph is bit-identical to the original (edge weights are
  // never re-derived from geometry on load). The buffers are Storage, so a
  // zero-copy snapshot load can hand in arena views.
  struct Parts {
    size_t num_vertices = 0;
    Storage<uint64_t> offsets;  // num_vertices + 1 entries
    Storage<D2DEdge> edges;
  };

  // Builds the D2D graph of `venue` with geometric weights. The venue must
  // outlive the graph.
  explicit D2DGraph(const Venue& venue);

  // Builds a D2D graph from explicit undirected edges over `num_doors`
  // doors (each explicit edge produces both directions).
  D2DGraph(size_t num_doors, Span<const ExplicitD2DEdge> edges);

  // Returns an error description if `parts` is not a well-formed CSR graph,
  // std::nullopt if it is. kStructure checks the offsets array (size,
  // monotonicity, coverage); kFull additionally sweeps every edge (target
  // in range, weight non-negative) — see viptree::ValidationLevel.
  static std::optional<std::string> ValidateParts(
      const Parts& parts, ValidationLevel level = ValidationLevel::kFull);

  // Reconstructs a graph from deserialized parts. Aborts on malformed input
  // (run ValidateParts first when the parts come from an untrusted file).
  static D2DGraph FromParts(Parts parts);

  // Same, for callers that have *just* run ValidateParts themselves (the
  // snapshot loader): skips the redundant validation pass.
  static D2DGraph FromValidatedParts(Parts parts);

  Parts ToParts() const;
  D2DGraph Clone() const { return FromParts(ToParts()); }

  D2DGraph(const D2DGraph&) = delete;
  D2DGraph& operator=(const D2DGraph&) = delete;
  D2DGraph(D2DGraph&&) = default;

  size_t NumVertices() const { return num_vertices_; }

  // Number of directed edges.
  size_t NumDirectedEdges() const { return edges_.size(); }

  // Number of undirected edges (what Table 2 reports).
  size_t NumEdges() const { return edges_.size() / 2; }

  Span<const D2DEdge> EdgesOf(DoorId d) const {
    return {edges_.data() + offsets_[d], edges_.data() + offsets_[d + 1]};
  }

  uint64_t MemoryBytes() const {
    return offsets_.MemoryBytes() + edges_.MemoryBytes();
  }

 private:
  D2DGraph() = default;

  size_t num_vertices_ = 0;
  Storage<uint64_t> offsets_;
  Storage<D2DEdge> edges_;
};

}  // namespace viptree

#endif  // VIPTREE_GRAPH_D2D_GRAPH_H_
