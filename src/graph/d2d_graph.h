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
//
// A graph records its kind. A *geometric* graph (built from a venue) has
// metric partition cliques — its weights are scaled Euclidean distances —
// and stores each door's edges as contiguous runs, one per partition of
// the door, in ascending partition order. The confined same-leaf search
// relies on both (core/distance_query.h). An *explicit* graph promises
// neither: the paper example's P1 clique breaks the triangle inequality.

#ifndef VIPTREE_GRAPH_D2D_GRAPH_H_
#define VIPTREE_GRAPH_D2D_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
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

// Edges are persisted as raw bytes in format-v3 snapshots and aliased
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
  enum class Kind : uint8_t { kExplicit = 0, kGeometric = 1 };

  // The complete serializable state: the CSR arrays exactly as stored, so a
  // reconstructed graph is bit-identical to the original (edge weights are
  // never re-derived from geometry on load). The buffers are Storage, so a
  // zero-copy snapshot load can hand in arena views.
  struct Parts {
    size_t num_vertices = 0;
    Storage<uint64_t> offsets;  // num_vertices + 1 entries
    Storage<D2DEdge> edges;
    Kind kind = Kind::kExplicit;
  };

  // Builds the geometric D2D graph of `venue`.
  explicit D2DGraph(const Venue& venue);

  // Builds an explicit D2D graph from undirected edges over `num_doors`
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

  // For a geometric graph, an error description if some door's degree is
  // not the sum of its runs, Σ(|DoorsOf(P)| - 1) over the door's
  // partitions P in `venue` (or the vertex count is not the door count);
  // std::nullopt otherwise, and always for an explicit graph. O(doors):
  // it makes ForEachRun safe on any graph that passes, tampered or not.
  std::optional<std::string> CheckRuns(const Venue& venue) const;

  // Calls f(p, run) for each partition p of door `d`, in ascending order,
  // with the span of d's edges through p. Only for a geometric graph that
  // passed CheckRuns against `venue`.
  template <typename F>
  void ForEachRun(const Venue& venue, DoorId d, F&& f) const;

  D2DGraph(const D2DGraph&) = delete;
  D2DGraph& operator=(const D2DGraph&) = delete;
  D2DGraph(D2DGraph&&) = default;

  size_t NumVertices() const { return num_vertices_; }
  Kind kind() const { return kind_; }

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
  Kind kind_ = Kind::kExplicit;
};

template <typename F>
void D2DGraph::ForEachRun(const Venue& venue, DoorId d, F&& f) const {
  const Door& door = venue.door(d);
  PartitionId first = door.partition_a;
  PartitionId second = door.partition_b;  // kInvalidId: exterior door
  if (second != kInvalidId && second < first) std::swap(first, second);
  const D2DEdge* run = edges_.data() + offsets_[d];
  for (const PartitionId p : {first, second}) {
    if (p == kInvalidId) break;
    const size_t len = venue.DoorsOf(p).size() - 1;
    f(p, Span<const D2DEdge>(run, run + len));
    run += len;
  }
}

}  // namespace viptree

#endif  // VIPTREE_GRAPH_D2D_GRAPH_H_
