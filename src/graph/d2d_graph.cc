#include "graph/d2d_graph.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/span.h"

namespace viptree {

std::optional<std::string> D2DGraph::ValidateParts(const Parts& parts,
                                                   ValidationLevel level) {
  if (parts.offsets.size() != parts.num_vertices + 1) {
    return "graph offsets array has " + std::to_string(parts.offsets.size()) +
           " entries, expected " + std::to_string(parts.num_vertices + 1);
  }
  if (!parts.offsets.empty() && parts.offsets.front() != 0) {
    return "graph offsets do not start at 0";
  }
  for (size_t v = 0; v < parts.num_vertices; ++v) {
    if (parts.offsets[v] > parts.offsets[v + 1]) {
      return "graph offsets are not monotone at vertex " + std::to_string(v);
    }
  }
  if (!parts.offsets.empty() && parts.offsets.back() != parts.edges.size()) {
    return "graph offsets cover " + std::to_string(parts.offsets.back()) +
           " edges but " + std::to_string(parts.edges.size()) +
           " are present";
  }
  if (level != ValidationLevel::kFull) return std::nullopt;
  for (size_t i = 0; i < parts.edges.size(); ++i) {
    const D2DEdge& e = parts.edges[i];
    if (e.to < 0 || static_cast<size_t>(e.to) >= parts.num_vertices) {
      return "edge " + std::to_string(i) + " targets unknown door " +
             std::to_string(e.to);
    }
    if (!(e.weight >= 0.0f)) {  // also rejects NaN
      return "edge " + std::to_string(i) + " has negative or NaN weight";
    }
  }
  return std::nullopt;
}

D2DGraph D2DGraph::FromParts(Parts parts) {
  const std::optional<std::string> error = ValidateParts(parts);
  VIPTREE_CHECK_MSG(!error.has_value(),
                    error.has_value() ? error->c_str() : "");
  return FromValidatedParts(std::move(parts));
}

D2DGraph D2DGraph::FromValidatedParts(Parts parts) {
  D2DGraph graph;
  graph.num_vertices_ = parts.num_vertices;
  graph.offsets_ = std::move(parts.offsets);
  graph.edges_ = std::move(parts.edges);
  graph.kind_ = parts.kind;
  return graph;
}

D2DGraph::Parts D2DGraph::ToParts() const {
  Parts parts;
  parts.num_vertices = num_vertices_;
  parts.offsets = offsets_;
  parts.edges = edges_;
  parts.kind = kind_;
  return parts;
}

std::optional<std::string> D2DGraph::CheckRuns(const Venue& venue) const {
  if (kind_ != Kind::kGeometric) return std::nullopt;
  if (num_vertices_ != venue.NumDoors()) {
    return "geometric graph has " + std::to_string(num_vertices_) +
           " vertices for " + std::to_string(venue.NumDoors()) + " doors";
  }
  for (const Door& door : venue.doors()) {
    uint64_t runs = venue.DoorsOf(door.partition_a).size() - 1;
    if (!door.is_exterior()) runs += venue.DoorsOf(door.partition_b).size() - 1;
    const uint64_t degree = offsets_[door.id + 1] - offsets_[door.id];
    if (degree != runs) {
      return "geometric graph gives door " + std::to_string(door.id) + " " +
             std::to_string(degree) + " edges, its partitions " +
             std::to_string(runs);
    }
  }
  return std::nullopt;
}

D2DGraph::D2DGraph(const Venue& venue) : kind_(Kind::kGeometric) {
  num_vertices_ = venue.NumDoors();

  // Pass 1: count directed edges per door. Every unordered pair of distinct
  // doors of a partition contributes one edge in each direction.
  std::vector<uint64_t> degree(num_vertices_ + 1, 0);
  for (const Partition& p : venue.partitions()) {
    const Span<const DoorId> doors = venue.DoorsOf(p.id);
    const uint64_t others = doors.size() - 1;
    for (DoorId d : doors) degree[d] += others;
  }
  offsets_.assign(num_vertices_ + 1, 0);
  for (size_t v = 0; v < num_vertices_; ++v) {
    offsets_[v + 1] = offsets_[v] + degree[v];
  }
  edges_.resize(offsets_.back());

  // Pass 2: fill. Partitions in ascending id order, so each door's edges
  // come out as one run per partition (ForEachRun).
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Partition& p : venue.partitions()) {
    const Span<const DoorId> doors = venue.DoorsOf(p.id);
    for (size_t i = 0; i < doors.size(); ++i) {
      for (size_t j = i + 1; j < doors.size(); ++j) {
        const DoorId u = doors[i];
        const DoorId v = doors[j];
        const float w = static_cast<float>(venue.IntraPartitionDistance(
            p.id, venue.door(u).position, venue.door(v).position));
        edges_[cursor[u]++] = D2DEdge{v, w, p.id};
        edges_[cursor[v]++] = D2DEdge{u, w, p.id};
      }
    }
  }
  for (size_t v = 0; v < num_vertices_; ++v) {
    VIPTREE_DCHECK(cursor[v] == offsets_[v + 1]);
  }
}

D2DGraph::D2DGraph(size_t num_doors,
                   Span<const ExplicitD2DEdge> explicit_edges) {
  num_vertices_ = num_doors;
  std::vector<uint64_t> degree(num_vertices_, 0);
  for (const ExplicitD2DEdge& e : explicit_edges) {
    VIPTREE_CHECK(e.u >= 0 && static_cast<size_t>(e.u) < num_doors);
    VIPTREE_CHECK(e.v >= 0 && static_cast<size_t>(e.v) < num_doors);
    VIPTREE_CHECK(e.u != e.v);
    VIPTREE_CHECK(e.weight >= 0.0f);
    ++degree[e.u];
    ++degree[e.v];
  }
  offsets_.assign(num_vertices_ + 1, 0);
  for (size_t v = 0; v < num_vertices_; ++v) {
    offsets_[v + 1] = offsets_[v] + degree[v];
  }
  edges_.resize(offsets_.back());
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const ExplicitD2DEdge& e : explicit_edges) {
    edges_[cursor[e.u]++] = D2DEdge{e.v, e.weight, e.via};
    edges_[cursor[e.v]++] = D2DEdge{e.u, e.weight, e.via};
  }
}

}  // namespace viptree
