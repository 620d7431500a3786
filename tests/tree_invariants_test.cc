// Structural invariants of the IP-Tree across a parameterized sweep of
// venue shapes and minimum degrees — the properties the §3 algorithms rely
// on (access-door nesting, matrix door sets, next-hop consistency, DFS
// interval partitioning, superior-door definition, the derived access-door
// matrix positions, one Eq. (1) descent at every level). Two sweeps share
// the suite: four hand-picked venue
// shapes, and randomized synthetic venues drawn from seeds (the same
// generator the differential tests use).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/distance_query.h"
#include "core/ip_tree.h"
#include "core/vip_tree.h"
#include "engine/venue_bundle.h"
#include "graph/dijkstra.h"
#include "ground_truth.h"
#include "synth/building_generator.h"
#include "synth/campus_generator.h"
#include "synth/objects.h"
#include "synth/replicate.h"
#include "common/span.h"

namespace viptree {
namespace {

struct SweepParam {
  int venue_kind;  // 0..3 fixed shapes, 4 = randomized from `seed`
  int min_degree;
  uint64_t seed = 0;  // venue_kind 4 only
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  if (info.param.venue_kind == 4) {
    return "rand_s" + std::to_string(info.param.seed) + "_t" +
           std::to_string(info.param.min_degree);
  }
  return "venue" + std::to_string(info.param.venue_kind) + "_t" +
         std::to_string(info.param.min_degree);
}

Venue MakeSweepVenue(int kind, uint64_t seed) {
  switch (kind) {
    case 4:
      return testing::RandomSynthVenue(seed);
    case 0: {  // compact two-floor building
      synth::BuildingConfig cfg;
      cfg.floors = 2;
      cfg.rooms_per_floor = 14;
      cfg.staircases = 1;
      return synth::GenerateStandaloneBuilding(cfg, 400);
    }
    case 1: {  // tall tower with lifts and room-to-room doors
      synth::BuildingConfig cfg;
      cfg.floors = 8;
      cfg.rooms_per_floor = 26;
      cfg.staircases = 2;
      cfg.lifts = 2;
      cfg.inter_room_door_prob = 0.3;
      cfg.extra_corridor_door_prob = 0.25;
      return synth::GenerateStandaloneBuilding(cfg, 401);
    }
    case 2: {  // replicated building (Men-2 style)
      synth::BuildingConfig cfg;
      cfg.floors = 3;
      cfg.rooms_per_floor = 16;
      const Venue base = synth::GenerateStandaloneBuilding(cfg, 402);
      synth::ReplicateOptions options;
      options.copies = 2;
      return synth::ReplicateVertically(base, options);
    }
    default:  // small campus
      return synth::GenerateCampus(synth::MixedCampusConfig(3, 0.12, 403));
  }
}

class TreeInvariantTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  TreeInvariantTest()
      : venue_(MakeSweepVenue(GetParam().venue_kind, GetParam().seed)),
        graph_(venue_),
        tree_(IPTree::Build(venue_, graph_,
                            {.min_degree = GetParam().min_degree})) {}

  Venue venue_;
  D2DGraph graph_;
  IPTree tree_;
};

TEST_P(TreeInvariantTest, AccessDoorNesting) {
  // d in AD(N) implies d in AD(child of N containing it), all the way to a
  // leaf — the property path decomposition relies on.
  for (const TreeNode& n : tree_.nodes()) {
    if (n.is_leaf()) continue;
    for (DoorId d : n.access_doors) {
      bool found = false;
      for (NodeId c : n.children) {
        const TreeNode& child = tree_.node(c);
        const auto& ad = child.access_doors;
        if (std::binary_search(ad.begin(), ad.end(), d)) found = true;
      }
      EXPECT_TRUE(found) << "door " << d << " in AD(" << n.id
                         << ") but no child has it";
    }
  }
}

TEST_P(TreeInvariantTest, MatrixDoorsAreUnionOfChildAccessDoors) {
  for (const TreeNode& n : tree_.nodes()) {
    if (n.is_leaf()) continue;
    std::set<DoorId> expected;
    for (NodeId c : n.children) {
      const auto& ad = tree_.node(c).access_doors;
      expected.insert(ad.begin(), ad.end());
    }
    EXPECT_EQ(std::set<DoorId>(n.matrix_doors.begin(), n.matrix_doors.end()),
              expected);
    EXPECT_EQ(n.dist.rows(), n.matrix_doors.size());
    EXPECT_EQ(n.dist.cols(), n.matrix_doors.size());
  }
}

TEST_P(TreeInvariantTest, LeafDfsIntervalsPartitionTheLeaves) {
  const TreeNode& root = tree_.node(tree_.root());
  EXPECT_EQ(root.leaf_begin, 0u);
  EXPECT_EQ(root.leaf_end, tree_.num_leaves());
  for (const TreeNode& n : tree_.nodes()) {
    EXPECT_LT(n.leaf_begin, n.leaf_end);
    if (n.is_leaf()) {
      EXPECT_EQ(n.leaf_end, n.leaf_begin + 1);
      continue;
    }
    // Children intervals tile the parent's interval.
    uint32_t covered = 0;
    for (NodeId c : n.children) {
      covered += tree_.node(c).leaf_end - tree_.node(c).leaf_begin;
      EXPECT_GE(tree_.node(c).leaf_begin, n.leaf_begin);
      EXPECT_LE(tree_.node(c).leaf_end, n.leaf_end);
    }
    EXPECT_EQ(covered, n.leaf_end - n.leaf_begin);
  }
}

TEST_P(TreeInvariantTest, NonLeafMatrixDistancesAreGlobalShortest) {
  // Spot-check non-leaf matrix entries against plain Dijkstra.
  DijkstraEngine engine(graph_);
  int checked = 0;
  for (const TreeNode& n : tree_.nodes()) {
    if (n.is_leaf() || checked > 4) continue;
    ++checked;
    const size_t m = n.matrix_doors.size();
    const size_t step = std::max<size_t>(1, m / 3);
    for (size_t i = 0; i < m; i += step) {
      engine.Start(n.matrix_doors[i]);
      engine.RunToTargets(n.matrix_doors);
      for (size_t j = 0; j < m; j += step) {
        EXPECT_NEAR(n.dist.at(i, j), engine.DistanceTo(n.matrix_doors[j]),
                    1e-3)
            << "node " << n.id;
      }
    }
  }
}

TEST_P(TreeInvariantTest, NextHopSplitsPreserveDistance) {
  // dist(x, y) == dist(x, hop) + dist(hop, y) whenever a next-hop exists.
  DijkstraEngine engine(graph_);
  int checked = 0;
  for (const TreeNode& n : tree_.nodes()) {
    if (n.is_leaf() || checked > 3) continue;
    ++checked;
    const size_t m = n.matrix_doors.size();
    const size_t step = std::max<size_t>(1, m / 3);
    for (size_t i = 0; i < m; i += step) {
      for (size_t j = 0; j < m; j += step) {
        const DoorId hop = n.next_hop.at(i, j);
        if (hop == kInvalidId) continue;
        const int hop_row = IPTree::IndexOf(n.matrix_doors, hop);
        ASSERT_GE(hop_row, 0);
        EXPECT_NEAR(n.dist.at(i, j),
                    n.dist.at(i, hop_row) + n.dist.at(hop_row, j), 1e-3);
      }
    }
  }
}

TEST_P(TreeInvariantTest, SuperiorDoorsContainLocalAccessDoors) {
  for (const Partition& p : venue_.partitions()) {
    const TreeNode& leaf = tree_.node(tree_.LeafOfPartition(p.id));
    const viptree::Span<const DoorId> sup = tree_.SuperiorDoors(p.id);
    const viptree::Span<const DoorId> doors = venue_.DoorsOf(p.id);
    // Superior doors are doors of the partition.
    for (DoorId d : sup) {
      EXPECT_NE(std::find(doors.begin(), doors.end(), d), doors.end());
    }
    // Definition 2(i): local access doors are superior.
    for (DoorId d : doors) {
      if (IPTree::IndexOf(leaf.access_doors, d) >= 0) {
        EXPECT_NE(std::find(sup.begin(), sup.end(), d), sup.end())
            << "local access door " << d << " of partition " << p.id;
      }
    }
    // At least one superior door unless the leaf has no access doors.
    if (!leaf.access_doors.empty()) {
      EXPECT_FALSE(sup.empty());
    }
  }
}

TEST_P(TreeInvariantTest, NodesAreNumberedInTraversalPreOrder) {
  // The builder's final pass renumbers nodes in pre-order DFS position
  // (children in stored order), so a branch-and-bound descent reads
  // consecutive node records. Replay the DFS and check id == position.
  ASSERT_EQ(tree_.root(), 0u);
  std::vector<NodeId> stack = {tree_.root()};
  NodeId expect = 0;
  size_t seen = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    EXPECT_EQ(n, expect++);
    ++seen;
    const TreeNode& node = tree_.node(n);
    EXPECT_EQ(node.id, n);
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  EXPECT_EQ(seen, tree_.nodes().size());
}

TEST_P(TreeInvariantTest, MinDegreeRespectedBelowRoot) {
  const int t = GetParam().min_degree;
  for (const TreeNode& n : tree_.nodes()) {
    if (n.is_leaf() || n.id == tree_.root()) continue;
    // Each non-root internal node was merged from at least t nodes.
    EXPECT_GE(static_cast<int>(n.children.size()), 2);
    (void)t;
  }
  const IPTree::Stats stats = tree_.ComputeStats();
  EXPECT_GT(stats.num_leaves, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);
}

// matrix_doors[pos[i]] == access_doors[i] for every (parent, child) and
// (node, itself) pair, with a span exactly where such a matrix exists.
void ExpectMatrixPositionsMatch(const IPTree& tree, const std::string& label) {
  for (const TreeNode& n : tree.nodes()) {
    const Span<const int32_t> in_parent = tree.ParentMatrixPositions(n.id);
    const Span<const int32_t> in_own = tree.OwnMatrixPositions(n.id);
    ASSERT_EQ(in_parent.size(),
              n.parent == kInvalidId ? 0 : n.access_doors.size())
        << label << " node " << n.id;
    ASSERT_EQ(in_own.size(), n.is_leaf() ? 0 : n.access_doors.size())
        << label << " node " << n.id;
    for (size_t i = 0; i < in_parent.size(); ++i) {
      EXPECT_EQ(tree.node(n.parent).matrix_doors.at(in_parent[i]),
                n.access_doors[i])
          << label << " node " << n.id << " in its parent";
    }
    for (size_t i = 0; i < in_own.size(); ++i) {
      EXPECT_EQ(n.matrix_doors.at(in_own[i]), n.access_doors[i])
          << label << " node " << n.id << " in its own matrix";
    }
  }
}

TEST_P(TreeInvariantTest, MatrixPositionsIndexAccessDoors) {
  ExpectMatrixPositionsMatch(tree_, "built");

  // The positions are derived, not persisted: a zero-copy snapshot load
  // must derive the same ones.
  engine::EngineOptions options;
  options.tree.min_degree = GetParam().min_degree;
  Rng rng(GetParam().seed);
  const engine::VenueBundle built = engine::VenueBundle::BuildFrom(
      venue_, graph_, synth::PlaceObjects(venue_, 4, rng), options);
  const char* dir = std::getenv("TMPDIR");
  const std::string path =
      std::string(dir != nullptr && dir[0] != '\0' ? dir : "/tmp") +
      "/viptree_tree_invariants_" + std::to_string(::getpid()) + ".snap";
  ASSERT_TRUE(built.Save(path).ok());
  const engine::VenueBundle loaded = engine::VenueBundle::Load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.zero_copy());
  ExpectMatrixPositionsMatch(loaded.tree().base(), "mmap");
}

// Bit-level equality of two descents, PathBack included.
void ExpectSameDescent(const std::vector<double>& dist,
                       const std::vector<PathBack>& back,
                       const std::vector<double>& want_dist,
                       const std::vector<PathBack>& want_back,
                       const std::string& label) {
  ASSERT_EQ(dist.size(), want_dist.size()) << label;
  ASSERT_EQ(back.size(), want_back.size()) << label;
  EXPECT_EQ(std::memcmp(dist.data(), want_dist.data(),
                        dist.size() * sizeof(double)),
            0)
      << label;
  for (size_t c = 0; c < back.size(); ++c) {
    EXPECT_EQ(back[c].pred, want_back[c].pred) << label << " column " << c;
    EXPECT_EQ(back[c].pred_chain_idx, want_back[c].pred_chain_idx)
        << label << " column " << c;
  }
}

// Eq. (1) cell by cell, column-outer: per access door, the direct leg and
// then every superior door in order, strict-<.
void ColumnOuterDescent(const VIPTree& vip, const IndoorPoint& s, NodeId node,
                        std::vector<double>& dist,
                        std::vector<PathBack>& back) {
  const IPTree& tree = vip.base();
  const Venue& venue = tree.venue();
  const std::vector<DoorId>& cols = tree.node(node).access_doors;
  const Span<const DoorId> own = venue.DoorsOf(s.partition);
  dist.assign(cols.size(), kInfDistance);
  back.assign(cols.size(), PathBack{});
  for (size_t c = 0; c < cols.size(); ++c) {
    if (std::find(own.begin(), own.end(), cols[c]) != own.end()) {
      dist[c] = venue.DistanceToDoor(s, cols[c]);
    }
    for (DoorId u : tree.SuperiorDoors(s.partition)) {
      const double cand = venue.DistanceToDoor(s, u) + vip.ExtDist(node, u, c);
      if (cand < dist[c]) {
        dist[c] = cand;
        back[c] = PathBack{u, -1};
      }
    }
  }
}

TEST_P(TreeInvariantTest, OneEq1DescentAtTheLeafAndUpTheChain) {
  // The row-outer descent equals the cell-by-cell Eq. (1) on the leaf and
  // every ancestor. At a leaf the VIP descent reads the IP leaf matrix, so
  // it must equal the IP seed bit for bit.
  const VIPTree vip =
      VIPTree::Build(venue_, graph_, {.min_degree = GetParam().min_degree});
  const IPTree& tree = vip.base();
  const IPDistanceQuery ip(tree);
  const VIPDistanceQuery query(vip);
  Rng rng(GetParam().seed * 31 + 7);
  std::vector<double> want, got;
  std::vector<PathBack> want_back, got_back;
  for (int i = 0; i < 10; ++i) {
    const IndoorPoint p = synth::RandomIndoorPoint(venue_, rng);
    const NodeId leaf = tree.LeafOfPartition(p.partition);
    const TreeNode& leaf_node = tree.node(leaf);
    ip.SeedLeaf(QuerySource::Point(p), leaf_node, want, want_back);
    query.DistancesToNodeAd(QuerySource::Point(p), leaf, got, got_back);
    ExpectSameDescent(got, got_back, want, want_back, "point at leaf");

    const DoorId d = leaf_node.doors[rng.UniformIndex(leaf_node.doors.size())];
    ip.SeedLeaf(QuerySource::Door(d), leaf_node, want, want_back);
    query.DistancesToNodeAd(QuerySource::Door(d), leaf, got, got_back);
    ExpectSameDescent(got, got_back, want, want_back, "door at leaf");

    for (NodeId n = leaf; n != kInvalidId; n = tree.node(n).parent) {
      ColumnOuterDescent(vip, p, n, want, want_back);
      query.DistancesToNodeAd(QuerySource::Point(p), n, got, got_back);
      ExpectSameDescent(got, got_back, want, want_back,
                        "node " + std::to_string(n));
    }
  }
}

TEST_P(TreeInvariantTest, AccessDoorCountsStaySmall) {
  // The paper's central empirical claim (§4.1): rho stays small because
  // indoor regions connect through few doors.
  const IPTree::Stats stats = tree_.ComputeStats();
  EXPECT_LT(stats.avg_access_doors, 16.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeInvariantTest,
    ::testing::Values(SweepParam{0, 2}, SweepParam{0, 4}, SweepParam{1, 2},
                      SweepParam{1, 6}, SweepParam{2, 2}, SweepParam{2, 3},
                      SweepParam{3, 2}, SweepParam{3, 5}),
    ParamName);

// Randomized sweep: every invariant above must also hold on irregular
// generated topologies, across seeds and minimum degrees.
std::vector<SweepParam> RandomSweepParams() {
  std::vector<SweepParam> params;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    params.push_back(SweepParam{4, 2 + static_cast<int>(seed % 3), seed});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, TreeInvariantTest,
                         ::testing::ValuesIn(RandomSweepParams()), ParamName);

}  // namespace
}  // namespace viptree
