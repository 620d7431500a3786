// VIP-Tree materialization tests (§2.2): the extended matrices store exact
// global distances and decomposable next-hops for every (door, ancestor
// access door) pair, and the extra storage follows O(rho * D * log M).

#include "core/vip_tree.h"

#include <gtest/gtest.h>

#include "core/distance_query.h"
#include "graph/dijkstra.h"
#include "synth/building_generator.h"
#include "synth/replicate.h"
#include "common/span.h"

namespace viptree {
namespace {

class VipTreeTest : public ::testing::TestWithParam<int> {
 protected:
  static Venue MakeVenue(int kind) {
    synth::BuildingConfig cfg;
    switch (kind) {
      case 0:
        cfg.floors = 3;
        cfg.rooms_per_floor = 16;
        return synth::GenerateStandaloneBuilding(cfg, 500);
      case 1:
        cfg.floors = 6;
        cfg.rooms_per_floor = 30;
        cfg.corridors_per_floor = 2;
        cfg.lifts = 1;
        return synth::GenerateStandaloneBuilding(cfg, 501);
      default: {
        cfg.floors = 2;
        cfg.rooms_per_floor = 12;
        const Venue base = synth::GenerateStandaloneBuilding(cfg, 502);
        synth::ReplicateOptions options;
        options.copies = 3;
        return synth::ReplicateVertically(base, options);
      }
    }
  }

  VipTreeTest()
      : venue_(MakeVenue(GetParam())),
        graph_(venue_),
        vip_(VIPTree::Build(venue_, graph_)) {}

  Venue venue_;
  D2DGraph graph_;
  VIPTree vip_;
};

TEST_P(VipTreeTest, ExtendedDistancesAreExact) {
  const IPTree& tree = vip_.base();
  DijkstraEngine engine(graph_);
  // For a sample of nodes: every row door's distance to every access door
  // equals the plain Dijkstra distance.
  int checked_nodes = 0;
  for (const TreeNode& n : tree.nodes()) {
    if (n.is_leaf() || n.access_doors.empty() || checked_nodes >= 3) continue;
    ++checked_nodes;
    for (size_t col = 0; col < n.access_doors.size(); ++col) {
      engine.Start(n.access_doors[col]);
      engine.RunAll();
      const viptree::Span<const DoorId> rows = vip_.ExtDoors(n.id);
      const size_t step = std::max<size_t>(1, rows.size() / 10);
      for (size_t r = 0; r < rows.size(); r += step) {
        EXPECT_NEAR(vip_.ExtDist(n.id, rows[r], col),
                    engine.DistanceTo(rows[r]), 1e-3);
      }
    }
  }
  EXPECT_GT(checked_nodes, 0);
}

TEST_P(VipTreeTest, ExtendedNextHopsDecompose) {
  // Following next-hop pointers from any door must reach the access door
  // with exactly the materialized distance.
  const IPTree& tree = vip_.base();
  IPDistanceQuery ip(tree);
  for (const TreeNode& n : tree.nodes()) {
    if (n.is_leaf()) continue;
    const viptree::Span<const DoorId> rows = vip_.ExtDoors(n.id);
    const size_t step = std::max<size_t>(1, rows.size() / 6);
    for (size_t col = 0; col < n.access_doors.size(); ++col) {
      const DoorId target = n.access_doors[col];
      for (size_t r = 0; r < rows.size(); r += step) {
        DoorId cur = rows[r];
        double walked = 0.0;
        int guard = 0;
        while (cur != target && guard++ < 10000) {
          const int row = vip_.ExtRowOf(n.id, cur);
          if (row < 0) {
            // The path excursed outside the subtree (rare, §3.3); the
            // walker finishes with a local search, so just add the exact
            // remaining distance.
            walked += ip.DoorDistance(cur, target);
            cur = target;
            break;
          }
          const DoorId hop =
              vip_.ExtNextHop(n.id, static_cast<size_t>(row), col);
          const DoorId next = hop == kInvalidId ? target : hop;
          walked += ip.DoorDistance(cur, next);
          cur = next;
        }
        EXPECT_LT(guard, 10000) << "next-hop walk did not terminate";
        EXPECT_NEAR(walked, vip_.ExtDist(n.id, rows[r], col), 1e-2);
      }
    }
  }
}

TEST_P(VipTreeTest, RowSetsCoverSubtreeDoors) {
  const IPTree& tree = vip_.base();
  for (const TreeNode& n : tree.nodes()) {
    if (n.is_leaf()) continue;
    // Every door of every partition in the subtree has a row.
    for (const Partition& p : venue_.partitions()) {
      if (!tree.NodeContainsPartition(n.id, p.id)) continue;
      for (DoorId d : venue_.DoorsOf(p.id)) {
        EXPECT_GE(vip_.ExtRowOf(n.id, d), 0)
            << "door " << d << " missing from node " << n.id;
      }
    }
  }
}

TEST_P(VipTreeTest, MaterializationCostsMoreThanBaseButBounded) {
  const IPTree ip = IPTree::Build(venue_, graph_);
  EXPECT_GT(vip_.MemoryBytes(), ip.MemoryBytes());
  // O(rho * D * log_f M) extra with generous constants.
  const IPTree::Stats stats = ip.ComputeStats();
  const double bound = 64.0 *
                       (stats.avg_access_doors + 1.0) *
                       static_cast<double>(venue_.NumDoors()) *
                       (stats.height + 1.0);
  EXPECT_LT(static_cast<double>(vip_.MemoryBytes() - ip.MemoryBytes()),
            bound);
}

TEST_P(VipTreeTest, ExtendAndBuildAgree) {
  VIPTree extended = VIPTree::Extend(IPTree::Build(venue_, graph_));
  VIPDistanceQuery a(vip_);
  VIPDistanceQuery b(extended);
  Rng rng(77);
  for (int i = 0; i < 30; ++i) {
    const DoorId s = static_cast<DoorId>(rng.UniformIndex(venue_.NumDoors()));
    const DoorId t = static_cast<DoorId>(rng.UniformIndex(venue_.NumDoors()));
    EXPECT_DOUBLE_EQ(a.DoorDistance(s, t), b.DoorDistance(s, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Venues, VipTreeTest, ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0:
                               return std::string("SmallBuilding");
                             case 1:
                               return std::string("TwoCorridorTower");
                             default:
                               return std::string("TripleStack");
                           }
                         });

}  // namespace
}  // namespace viptree
