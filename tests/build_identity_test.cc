// Index construction runs one Dijkstra per distinct access door, resumed
// node by node and fanned over worker threads (ForEachSource). This suite
// keeps the straightforward construction as the oracle: a fresh search per
// (leaf, column) and per (node, column), stopped at that node's own doors,
// then the same path walk. The leaf matrices, the superior-door CSR and
// the VIP extended matrices must equal it bit for bit on Men-2, City at
// scale 0.01 and the 24 seeded random venues; and ForEachSource must give
// the same searches at 1, 2 and 7 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ip_tree.h"
#include "core/vip_tree.h"
#include "graph/d2d_graph.h"
#include "graph/dijkstra.h"
#include "ground_truth.h"
#include "synth/presets.h"

namespace viptree {
namespace {

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Counts cell mismatches and keeps the first one for the failure message.
struct Mismatches {
  size_t count = 0;
  std::string first;

  void Add(const std::string& where) {
    if (count++ == 0) first = where;
  }
};

// The distance and next hop of row door `d` for column access door `a` of
// node `n`, from a search that has settled `d`: the path walk the builder
// has always done (first door when the path stays inside `n`, first global
// access door when it leaves).
void OracleCell(const IPTree& tree, const DijkstraEngine& engine, NodeId n,
                DoorId d, DoorId a, float* dist, DoorId* hop) {
  *dist = static_cast<float>(engine.DistanceTo(d));
  *hop = kInvalidId;
  if (d == a) return;
  bool inside = true;
  DoorId first_access = kInvalidId;
  for (DoorId cur = d; cur != a; cur = engine.ParentOf(cur)) {
    if (!tree.NodeContainsPartition(n, engine.ParentVia(cur))) inside = false;
    const DoorId next = engine.ParentOf(cur);
    if (next != a && first_access == kInvalidId && tree.IsAccessDoor(next)) {
      first_access = next;
    }
  }
  const DoorId first_door = engine.ParentOf(d);
  const DoorId direct = first_door == a ? kInvalidId : first_door;
  *hop = inside || first_access == kInvalidId ? direct : first_access;
}

// One fresh search per column of `n`, stopped at `rows`, compared with the
// built matrices cell by cell.
void CheckColumns(const IPTree& tree, DijkstraEngine& engine, NodeId n,
                  Span<const DoorId> rows, const FlatMatrix<float>& dist,
                  const FlatMatrix<DoorId>& next_hop, Mismatches* out) {
  const TreeNode& node = tree.node(n);
  if (dist.rows() != rows.size() || dist.cols() != node.access_doors.size() ||
      next_hop.rows() != rows.size() || next_hop.cols() != dist.cols()) {
    out->Add("node " + std::to_string(n) + " matrix shape");
    return;
  }
  for (size_t col = 0; col < node.access_doors.size(); ++col) {
    const DoorId a = node.access_doors[col];
    engine.Start(a);
    engine.RunToTargets(rows);
    for (size_t row = 0; row < rows.size(); ++row) {
      float want_dist;
      DoorId want_hop;
      OracleCell(tree, engine, n, rows[row], a, &want_dist, &want_hop);
      if (Bits(dist.at(row, col)) != Bits(want_dist) ||
          next_hop.at(row, col) != want_hop) {
        std::ostringstream where;
        where << "node " << n << " row door " << rows[row] << " access door "
              << a << ": built (" << dist.at(row, col) << ", "
              << next_hop.at(row, col) << "), oracle (" << want_dist << ", "
              << want_hop << ")";
        out->Add(where.str());
      }
    }
  }
}

// Superior doors (Definition 2) by the per-(leaf, column) loop: local
// access doors, plus every door whose path to a global access door of the
// leaf crosses no other door of its partition.
std::vector<std::vector<DoorId>> OracleSuperiorDoors(const IPTree& tree,
                                                     DijkstraEngine& engine) {
  const Venue& venue = tree.venue();
  std::vector<std::vector<DoorId>> superior(venue.NumPartitions());
  for (const TreeNode& leaf : tree.nodes()) {
    if (!leaf.is_leaf()) continue;
    for (PartitionId p : leaf.partitions) {
      for (DoorId d : venue.DoorsOf(p)) {
        if (IPTree::IndexOf(leaf.access_doors, d) >= 0) {
          superior[p].push_back(d);
        }
      }
    }
    for (DoorId a : leaf.access_doors) {
      engine.Start(a);
      engine.RunToTargets(leaf.doors);
      for (PartitionId p : leaf.partitions) {
        const Span<const DoorId> p_doors = venue.DoorsOf(p);
        if (std::find(p_doors.begin(), p_doors.end(), a) != p_doors.end()) {
          continue;  // `a` is local to p
        }
        for (DoorId di : p_doors) {
          bool crosses_other = false;
          for (DoorId cur = di; cur != a; cur = engine.ParentOf(cur)) {
            if (cur != di && std::find(p_doors.begin(), p_doors.end(), cur) !=
                                 p_doors.end()) {
              crosses_other = true;
              break;
            }
          }
          if (!crosses_other) superior[p].push_back(di);
        }
      }
    }
  }
  for (std::vector<DoorId>& doors : superior) {
    std::sort(doors.begin(), doors.end());
    doors.erase(std::unique(doors.begin(), doors.end()), doors.end());
  }
  return superior;
}

void ExpectBuildMatchesOracle(const Venue& venue, const std::string& label) {
  SCOPED_TRACE(label);
  const D2DGraph graph(venue);
  const VIPTree vip = VIPTree::Build(venue, graph);
  const IPTree& tree = vip.base();
  const VIPTree::Parts parts = vip.ToParts();
  DijkstraEngine engine(graph);

  Mismatches leaf_cells;
  Mismatches ext_cells;
  for (const TreeNode& node : tree.nodes()) {
    if (node.is_leaf()) {
      CheckColumns(tree, engine, node.id, node.doors, node.dist,
                   node.next_hop, &leaf_cells);
      continue;
    }
    // Rows of the extended matrix: every door of the subtree's leaves.
    std::vector<DoorId> rows;
    for (const TreeNode& leaf : tree.nodes()) {
      if (leaf.is_leaf() && tree.NodeContainsLeaf(node.id, leaf.id)) {
        rows.insert(rows.end(), leaf.doors.begin(), leaf.doors.end());
      }
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    const VIPTree::ExtMatrix& ext = parts.ext[node.id];
    if (!std::equal(rows.begin(), rows.end(), ext.doors.begin(),
                    ext.doors.end())) {
      ext_cells.Add("node " + std::to_string(node.id) + " row doors");
      continue;
    }
    CheckColumns(tree, engine, node.id, rows, ext.dist, ext.next_hop,
                 &ext_cells);
  }
  EXPECT_EQ(leaf_cells.count, 0u) << "first: " << leaf_cells.first;
  EXPECT_EQ(ext_cells.count, 0u) << "first: " << ext_cells.first;

  const std::vector<std::vector<DoorId>> superior =
      OracleSuperiorDoors(tree, engine);
  size_t superior_mismatches = 0;
  PartitionId first_bad = kInvalidId;
  for (PartitionId p = 0; p < static_cast<PartitionId>(superior.size()); ++p) {
    const Span<const DoorId> built = tree.SuperiorDoors(p);
    if (!std::equal(built.begin(), built.end(), superior[p].begin(),
                    superior[p].end())) {
      if (superior_mismatches++ == 0) first_bad = p;
    }
  }
  EXPECT_EQ(superior_mismatches, 0u) << "first: partition " << first_bad;
}

TEST(BuildIdentityTest, Men2MatchesPerColumnOracle) {
  ExpectBuildMatchesOracle(synth::MakeDataset(synth::Dataset::kMen2), "Men-2");
}

TEST(BuildIdentityTest, CityMatchesPerColumnOracle) {
  ExpectBuildMatchesOracle(synth::MakeDataset(synth::Dataset::kCity, 0.01),
                           "City 0.01");
}

class BuildIdentitySeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuildIdentitySeedTest, RandomVenueMatchesPerColumnOracle) {
  ExpectBuildMatchesOracle(testing::RandomSynthVenue(GetParam()),
                           "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuildIdentitySeedTest,
                         ::testing::Range<uint64_t>(0, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Everything one search leaves behind: settle count, then distance bits,
// parent and via of every door.
using SearchRecord = std::vector<uint64_t>;

// Source i searches from door i % |V| to a target set that alternates
// between a handful of doors and every door, so each engine is reused
// after both short and exhaustive searches.
SearchRecord RunSearch(const D2DGraph& graph, size_t i,
                       DijkstraEngine& engine) {
  const size_t n = graph.NumVertices();
  std::vector<DoorId> targets;
  for (size_t k = 0; k < n; ++k) {
    if (i % 3 == 0 || (k * 31 + i) % 17 == 0) {
      targets.push_back(static_cast<DoorId>(k));
    }
  }
  engine.Start(static_cast<DoorId>(i % n));
  engine.RunToTargets(targets);
  SearchRecord record = {engine.NumSettledInSearch()};
  for (DoorId d = 0; d < static_cast<DoorId>(n); ++d) {
    record.push_back(Bits(engine.DistanceTo(d)));
    record.push_back(static_cast<uint64_t>(engine.ParentOf(d)));
    record.push_back(static_cast<uint64_t>(engine.ParentVia(d)));
  }
  return record;
}

TEST(ForEachSourceTest, WorkerCountDoesNotChangeAnySearch) {
  const Venue venue = testing::RandomSynthVenue(5);
  const D2DGraph graph(venue);
  const size_t num_sources = 2 * graph.NumVertices() + 3;

  // Reference: a fresh engine per search.
  std::vector<SearchRecord> fresh(num_sources);
  for (size_t i = 0; i < num_sources; ++i) {
    DijkstraEngine engine(graph);
    fresh[i] = RunSearch(graph, i, engine);
  }

  for (unsigned workers : {1u, 2u, 7u}) {
    std::vector<SearchRecord> pooled(num_sources);
    std::vector<int> calls(num_sources, 0);
    ForEachSource(graph, num_sources, workers,
                  [&](size_t i, DijkstraEngine& engine) {
                    ++calls[i];
                    pooled[i] = RunSearch(graph, i, engine);
                  });
    for (size_t i = 0; i < num_sources; ++i) {
      ASSERT_EQ(calls[i], 1) << workers << " workers, source " << i;
      ASSERT_EQ(pooled[i], fresh[i]) << workers << " workers, source " << i;
    }
  }
}

TEST(ForEachSourceTest, FirstFailureIsRethrownAfterTheJoin) {
  const Venue venue = testing::RandomSynthVenue(1);
  const D2DGraph graph(venue);
  const size_t num_sources = 64;
  std::vector<std::atomic<int>> calls(num_sources);
  EXPECT_THROW(ForEachSource(graph, num_sources, 4,
                             [&](size_t i, DijkstraEngine&) {
                               ++calls[i];
                               if (i == 5) throw std::runtime_error("source 5");
                             }),
               std::runtime_error);
  for (size_t i = 0; i < num_sources; ++i) EXPECT_LE(calls[i].load(), 1);
  EXPECT_EQ(calls[5].load(), 1);
}

TEST(ForEachSourceTest, NoSourcesRunsNothing) {
  const Venue venue = testing::RandomSynthVenue(1);
  const D2DGraph graph(venue);
  int calls = 0;
  ForEachSource(graph, 0, 4, [&](size_t, DijkstraEngine&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace viptree
