// Same-leaf queries run one Dijkstra confined to the leaf, seeded with the
// leaf's access doors at their ascent distances (core/distance_query.h).
// These sweeps check that confinement never costs exactness:
//
//   * a hand-built venue whose shortest same-leaf routes leave the leaf
//     and re-enter it — distance, path, kNN and range against brute-force
//     Dijkstra on the whole graph (drop the access-door seeds and every
//     one of these fails);
//   * 500 seeded same-leaf queries of each kind on Men-2, the preset with
//     big leaves, against the same ground truth;
//   * the work counter: the search of q's leaf never settles more doors
//     than the leaf has;
//   * entry-partition pruning on geometric graphs (Men-2, CL-2, 24 seeded
//     random venues) against an unpruned confined oracle, and that an
//     explicit graph (the paper example, whose P1 clique is not metric)
//     is never pruned.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/distance_query.h"
#include "core/knn_query.h"
#include "core/object_index.h"
#include "core/path_query.h"
#include "core/vip_tree.h"
#include "engine/query_engine.h"
#include "graph/d2d_graph.h"
#include "graph/dijkstra.h"
#include "ground_truth.h"
#include "model/venue_builder.h"
#include "paper_example.h"
#include "synth/objects.h"
#include "synth/presets.h"
#include "synth/random_venue.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// Absolute + relative tolerance: leaf/ext matrices store float, queries
// accumulate in double.
double Tol(double reference) { return 1e-2 + std::abs(reference) * 1e-4; }

// Exact distance from door `s` to door `t` over the whole D2D graph.
double BruteDoorDistance(const D2DGraph& graph, DoorId s, DoorId t) {
  DijkstraEngine engine(graph);
  engine.Start(s);
  engine.RunAll();
  return engine.DistanceTo(t);
}

// dist(q, o) for every object from one full-graph search (the sorted
// ground_truth.h helpers run one search per object).
std::vector<double> BruteObjectDistances(const Venue& venue,
                                         const D2DGraph& graph,
                                         const IndoorPoint& q,
                                         const std::vector<IndoorPoint>& objs) {
  std::vector<DijkstraSource> sources;
  for (DoorId u : venue.DoorsOf(q.partition)) {
    sources.push_back({u, venue.DistanceToDoor(q, u)});
  }
  DijkstraEngine engine(graph);
  engine.Start(sources);
  engine.RunAll();
  std::vector<double> out;
  for (const IndoorPoint& o : objs) {
    double best = kInfDistance;
    if (o.partition == q.partition) {
      best = venue.IntraPartitionDistance(q.partition, q.position, o.position);
    }
    for (DoorId d : venue.DoorsOf(o.partition)) {
      if (!engine.Settled(d)) continue;
      best = std::min(best, engine.DistanceTo(d) + venue.DistanceToDoor(o, d));
    }
    out.push_back(best);
  }
  return out;
}

// kNN and range answers must carry the brute-force distance sequence (ids
// may differ under ties).
void ExpectObjectsMatch(const std::vector<ObjectResult>& got,
                        std::vector<double> truth, size_t k, double radius,
                        const std::string& where) {
  std::sort(truth.begin(), truth.end());
  if (radius != kInfDistance) {
    // Compare only the strict interior of the radius; objects within Tol
    // of the cut may fall either way.
    size_t strict = 0;
    for (double d : truth) {
      if (d < radius - Tol(radius)) ++strict;
    }
    ASSERT_GE(got.size(), strict) << where;
    for (const ObjectResult& r : got) {
      EXPECT_LE(r.distance, radius + Tol(radius)) << where;
    }
  } else {
    ASSERT_EQ(got.size(), std::min(k, truth.size())) << where;
  }
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_NEAR(got[j].distance, truth[j], Tol(truth[j]))
        << where << " j=" << j;
  }
}

// ---------------------------------------------------------------------------
// A leaf whose own hallway is a detour.
//
//   leaf 0: room A, hallway B (walking cost x10), room C
//   leaf 1: corridors D1, D2 and room E
//
//     A --d0-- B --d1-- C          d2: A-D1   d3: D2-C (leaf 0's access
//     |                 |          doors)     d4: D1-D2   d5: D2-E
//     d2-- D1 --d4-- D2 --d3
//                 |
//                 d5-- E
//
// Any route between A and C (or from d0 to d1) is far shorter through
// leaf 1 than through B, so it leaves leaf 0 at d2 and re-enters at d3.
// ---------------------------------------------------------------------------

struct DetourVenue {
  Venue venue;
  D2DGraph graph;
  PartitionId a, b, c, e;
  std::vector<DoorId> doors;  // d0 .. d5

  static DetourVenue Make() {
    VenueBuilder builder;
    const PartitionId a =
        builder.AddPartition(0, PartitionUse::kRoom, Point{0, 0, 0}, "A");
    const PartitionId b = builder.AddPartition(
        0, PartitionUse::kCorridor, Point{5, 0, 0}, "B", /*cost_scale=*/10.0);
    const PartitionId c =
        builder.AddPartition(0, PartitionUse::kRoom, Point{10, 0, 0}, "C");
    const PartitionId d1 =
        builder.AddPartition(0, PartitionUse::kCorridor, Point{3, 5, 0}, "D1");
    const PartitionId d2 =
        builder.AddPartition(0, PartitionUse::kCorridor, Point{7, 5, 0}, "D2");
    const PartitionId e =
        builder.AddPartition(0, PartitionUse::kRoom, Point{5, 9, 0}, "E");
    std::vector<DoorId> doors = {
        builder.AddDoor(a, b, Point{2, 0, 0}),
        builder.AddDoor(b, c, Point{8, 0, 0}),
        builder.AddDoor(a, d1, Point{1, 3, 0}),
        builder.AddDoor(d2, c, Point{9, 3, 0}),
        builder.AddDoor(d1, d2, Point{5, 5, 0}),
        builder.AddDoor(d2, e, Point{6, 8, 0}),
    };
    Venue venue = std::move(builder).Build();
    D2DGraph graph(venue);
    return DetourVenue{std::move(venue), std::move(graph), a, b, c, e,
                       std::move(doors)};
  }

  // leaf 0 = {A, B, C}, leaf 1 = {D1, D2, E}.
  IPTreeOptions Options() const {
    IPTreeOptions options;
    options.forced_leaf_assignment = std::vector<int>{0, 0, 0, 1, 1, 1};
    return options;
  }
};

class DetourTest : public ::testing::Test {
 protected:
  DetourTest()
      : v_(DetourVenue::Make()),
        vip_(VIPTree::Build(v_.venue, v_.graph, v_.Options())) {}

  const IPTree& tree() const { return vip_.base(); }

  // Points spread over the three partitions of leaf 0.
  std::vector<IndoorPoint> LeafZeroPoints() const {
    std::vector<IndoorPoint> points;
    for (double dy : {-0.5, 0.5}) {
      points.push_back({v_.a, Point{0.5, dy, 0}});
      points.push_back({v_.b, Point{5.0, dy, 0}});
      points.push_back({v_.c, Point{9.5, dy, 0}});
    }
    return points;
  }

  DetourVenue v_;
  VIPTree vip_;
};

TEST_F(DetourTest, TheShortestRouteLeavesTheLeaf) {
  // Guard on the fixture itself: confined to leaf 0 with only A's own
  // doors as seeds, C is much farther than it really is.
  const NodeId leaf = tree().LeafOfPartition(v_.a);
  ASSERT_EQ(tree().LeafOfPartition(v_.c), leaf);
  const IndoorPoint s{v_.a, Point{0.5, 0.5, 0}};
  const IndoorPoint t{v_.c, Point{9.5, 0.5, 0}};
  std::vector<DijkstraSource> sources;
  for (DoorId u : v_.venue.DoorsOf(s.partition)) {
    sources.push_back({u, v_.venue.DistanceToDoor(s, u)});
  }
  DijkstraEngine engine(v_.graph);
  engine.Start(sources);
  const Span<const DoorId> c_doors = v_.venue.DoorsOf(t.partition);
  engine.RunToTargets(c_doors, [&](const D2DEdge& e) {
    return tree().LeafOfPartition(e.via) == leaf;
  });
  double inside = kInfDistance;
  for (DoorId d : c_doors) {
    if (!engine.Settled(d)) continue;
    inside = std::min(inside,
                      engine.DistanceTo(d) + v_.venue.DistanceToDoor(t, d));
  }
  const double truth = testing::BruteDistance(v_.venue, v_.graph, s, t);
  EXPECT_GT(inside, 2 * truth);
}

TEST_F(DetourTest, PointDistanceAndPathMatchBruteForce) {
  const IPDistanceQuery ip(tree());
  const VIPDistanceQuery vip(vip_);
  const IPPathQuery ip_path(tree());
  const VIPPathQuery vip_path(vip_);
  const std::vector<IndoorPoint> points = LeafZeroPoints();
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      const IndoorPoint& s = points[i];
      const IndoorPoint& t = points[j];
      const std::string where =
          "pair " + std::to_string(i) + "->" + std::to_string(j);
      const double truth = testing::BruteDistance(v_.venue, v_.graph, s, t);
      EXPECT_NEAR(ip.Distance(s, t), truth, Tol(truth)) << where;
      EXPECT_NEAR(vip.Distance(s, t), truth, Tol(truth)) << where;
      for (const IndoorPath& path : {ip_path.Path(s, t), vip_path.Path(s, t)}) {
        EXPECT_NEAR(path.distance, truth, Tol(truth)) << where;
        EXPECT_NEAR(
            testing::PointPathLength(v_.venue, v_.graph, s, t, path.doors),
            path.distance, Tol(path.distance))
            << where;
      }
    }
  }
}

TEST_F(DetourTest, DoorDistanceAndPathMatchBruteForce) {
  const IPDistanceQuery ip(tree());
  const VIPDistanceQuery vip(vip_);
  const IPPathQuery ip_path(tree());
  const VIPPathQuery vip_path(vip_);
  // d0..d3 are the doors of leaf 0.
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      const DoorId s = v_.doors[i];
      const DoorId t = v_.doors[j];
      const std::string where =
          "doors d" + std::to_string(i) + "->d" + std::to_string(j);
      const double truth = BruteDoorDistance(v_.graph, s, t);
      EXPECT_NEAR(ip.DoorDistance(s, t), truth, Tol(truth)) << where;
      EXPECT_NEAR(vip.DoorDistance(s, t), truth, Tol(truth)) << where;
      for (const IndoorPath& path :
           {ip_path.DoorPath(s, t), vip_path.DoorPath(s, t)}) {
        EXPECT_NEAR(path.distance, truth, Tol(truth)) << where;
        ASSERT_FALSE(path.doors.empty()) << where;
        EXPECT_EQ(path.doors.front(), s) << where;
        EXPECT_EQ(path.doors.back(), t) << where;
        EXPECT_NEAR(testing::DoorPathLength(v_.graph, path.doors),
                    path.distance, Tol(path.distance))
            << where;
      }
    }
  }
}

TEST_F(DetourTest, KnnAndRangeMatchBruteForce) {
  const std::vector<IndoorPoint> objects = {
      {v_.c, Point{9.5, -0.5, 0}},
      {v_.b, Point{5.0, 0.5, 0}},
      {v_.e, Point{5.0, 9.0, 0}},
      {v_.a, Point{0.0, -0.5, 0}},
      {v_.c, Point{10.0, 0.5, 0}},
  };
  const ObjectIndex index(tree(), objects);
  const KnnQuery knn(tree(), index);
  for (const IndoorPoint& q : LeafZeroPoints()) {
    const std::vector<double> truth =
        BruteObjectDistances(v_.venue, v_.graph, q, objects);
    for (size_t k : {1u, 3u, 5u}) {
      ExpectObjectsMatch(knn.Knn(q, k), truth, k, kInfDistance,
                         "knn k=" + std::to_string(k));
    }
    for (double radius : {5.0, 15.0, 40.0}) {
      ExpectObjectsMatch(knn.WithinRange(q, radius), truth, 0, radius,
                         "range r=" + std::to_string(radius));
    }
  }
}

// ---------------------------------------------------------------------------
// Men-2: 28 leaves of ~114 doors each, so most uniform kNN sources share a
// leaf with an object.
// ---------------------------------------------------------------------------

class Men2LeafSearchTest : public ::testing::Test {
 protected:
  static constexpr size_t kQueries = 500;

  static void SetUpTestSuite() {
    Venue venue = synth::MakeDataset(synth::Dataset::kMen2);
    Rng rng(50);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 50, rng);
    objects_ = new std::vector<IndoorPoint>(objects);
    engine_ = new eng::QueryEngine(std::move(venue), std::move(objects));
  }

  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete objects_;
    objects_ = nullptr;
  }

  static const IPTree& tree() { return engine_->tree().base(); }

  // A uniform point whose leaf holds at least one object.
  static IndoorPoint SourceBesideAnObject(Rng& rng) {
    while (true) {
      const IndoorPoint q = synth::RandomIndoorPoint(engine_->venue(), rng);
      const NodeId leaf = tree().LeafOfPartition(q.partition);
      if (!engine_->objects().ObjectsInLeaf(leaf).empty()) return q;
    }
  }

  static eng::QueryEngine* engine_;
  static std::vector<IndoorPoint>* objects_;
};

eng::QueryEngine* Men2LeafSearchTest::engine_ = nullptr;
std::vector<IndoorPoint>* Men2LeafSearchTest::objects_ = nullptr;

TEST_F(Men2LeafSearchTest, SameLeafDistanceAndPathMatchGroundTruth) {
  const Venue& venue = engine_->venue();
  const D2DGraph& graph = engine_->graph();
  const IPDistanceQuery ip(tree());
  Rng rng(0x1EAF);
  for (size_t i = 0; i < kQueries; ++i) {
    const IndoorPoint s = synth::RandomIndoorPoint(venue, rng);
    IndoorPoint t = synth::RandomIndoorPoint(venue, rng);
    while (tree().LeafOfPartition(t.partition) !=
           tree().LeafOfPartition(s.partition)) {
      t = synth::RandomIndoorPoint(venue, rng);
    }
    const std::string where = "query " + std::to_string(i);
    const double truth = testing::BruteDistance(venue, graph, s, t);
    EXPECT_NEAR(engine_->Run(eng::Query::Distance(s, t)).distance, truth,
                Tol(truth))
        << where;
    EXPECT_NEAR(ip.Distance(s, t), truth, Tol(truth)) << where;
    const eng::Result path = engine_->Run(eng::Query::Path(s, t));
    EXPECT_NEAR(path.distance, truth, Tol(truth)) << where;
    EXPECT_NEAR(testing::PointPathLength(venue, graph, s, t, path.doors),
                path.distance, Tol(path.distance))
        << where;
  }
}

TEST_F(Men2LeafSearchTest, SameLeafKnnAndRangeMatchGroundTruth) {
  Rng rng(0x0B1EC7);
  for (size_t i = 0; i < kQueries; ++i) {
    const IndoorPoint q = SourceBesideAnObject(rng);
    const std::string where = "query " + std::to_string(i);
    std::vector<double> truth = BruteObjectDistances(
        engine_->venue(), engine_->graph(), q, *objects_);
    ExpectObjectsMatch(engine_->Run(eng::Query::Knn(q, 5)).objects, truth, 5,
                       kInfDistance, where + " knn");
    std::vector<double> sorted = truth;
    std::sort(sorted.begin(), sorted.end());
    const double radius = sorted[sorted.size() / 4];
    ExpectObjectsMatch(engine_->Run(eng::Query::Range(q, radius)).objects,
                       truth, 0, radius, where + " range");
  }
}

TEST_F(Men2LeafSearchTest, LeafSearchSettlesOnlyTheLeafsDoors) {
  const KnnQuery knn(tree(), engine_->objects());
  Rng rng(0xD005);
  for (size_t i = 0; i < kQueries; ++i) {
    const IndoorPoint q = SourceBesideAnObject(rng);
    const NodeId leaf = tree().LeafOfPartition(q.partition);
    SearchStats stats;
    knn.Knn(q, 5, &stats);
    // q's leaf has bound 0, so the search always scans it, and the scan
    // never leaves it.
    EXPECT_GT(stats.doors_settled, 0u) << "query " << i;
    EXPECT_LE(stats.doors_settled, tree().node(leaf).doors.size())
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Entry-partition pruning. On a geometric graph the leaf search skips, for
// each settled door, the run of edges through the partition it was
// entered through. Against an unpruned confined oracle (the same seeds,
// every edge through a partition of the leaf relaxed) it must settle the
// same doors, at distances no smaller and at most 1e-6 relatively larger:
// where collinear doors tie in real arithmetic, float weights can make the
// detour through the middle door look shorter by one rounding, and only
// the oracle takes it.
// ---------------------------------------------------------------------------

// The oracle's confinement: every edge through a partition of `leaf`.
struct InLeafEdges {
  const IPTree* tree;
  NodeId leaf;
  bool operator()(const D2DEdge& e) const {
    return tree->LeafOfPartition(e.via) == leaf;
  }
};

class PruningCheck {
 public:
  explicit PruningCheck(const IPTree& tree)
      : tree_(tree), query_(tree), oracle_(tree.graph()) {}

  // Runs both searches from `source` over every door of its leaf and
  // compares them door by door.
  void Expect(const QuerySource& source, const std::string& where) {
    const Venue& venue = tree_.venue();
    const NodeId leaf = query_.LeafOf(source);
    const TreeNode& node = tree_.node(leaf);
    std::vector<double> access_dist;
    std::vector<PathBack> back;
    query_.SeedLeaf(source, node, access_dist, back);
    std::vector<DijkstraSource> seeds;
    if (source.door != kInvalidId) {
      seeds.push_back({source.door, 0.0});
    } else {
      for (DoorId u : venue.DoorsOf(source.point->partition)) {
        seeds.push_back({u, venue.DistanceToDoor(*source.point, u)});
      }
    }
    for (size_t c = 0; c < node.access_doors.size(); ++c) {
      if (access_dist[c] == kInfDistance) continue;
      seeds.push_back({node.access_doors[c], access_dist[c]});
    }
    oracle_.Start(seeds);
    oracle_.RunToTargets(node.doors, InLeafEdges{&tree_, leaf});

    LeafSearch pruned = query_.StartLeafSearch(source, leaf);
    pruned.RunTo(node.doors);
    pruned_edges_ += pruned.edges_relaxed();
    oracle_edges_ += oracle_.NumRelaxedInSearch();
    for (DoorId d : node.doors) {
      ASSERT_EQ(pruned.Settled(d), oracle_.Settled(d))
          << where << " door " << d;
      if (!oracle_.Settled(d)) continue;
      const double want = oracle_.DistanceTo(d);
      const double got = pruned.DistanceTo(d);
      EXPECT_GE(got, want) << where << " door " << d;
      EXPECT_LE(got, want * (1.0 + 1e-6)) << where << " door " << d;
    }
  }

  // `n` random point sources, then n / 4 + 1 random door sources.
  void ExpectAll(size_t n, uint64_t seed, const std::string& where) {
    Rng rng(seed);
    const Venue& venue = tree_.venue();
    for (size_t i = 0; i < n; ++i) {
      const IndoorPoint q = synth::RandomIndoorPoint(venue, rng);
      Expect(QuerySource::Point(q), where + " point " + std::to_string(i));
    }
    for (size_t i = 0; i < n / 4 + 1; ++i) {
      const DoorId d = static_cast<DoorId>(rng.UniformIndex(venue.NumDoors()));
      Expect(QuerySource::Door(d), where + " door source " +
                                       std::to_string(d));
    }
  }

  size_t pruned_edges() const { return pruned_edges_; }
  size_t oracle_edges() const { return oracle_edges_; }

 private:
  const IPTree& tree_;
  IPDistanceQuery query_;
  DijkstraEngine oracle_;
  size_t pruned_edges_ = 0;
  size_t oracle_edges_ = 0;
};

TEST_F(Men2LeafSearchTest, PrunedSearchMatchesUnprunedOracle) {
  ASSERT_EQ(engine_->graph().kind(), D2DGraph::Kind::kGeometric);
  PruningCheck check(tree());
  check.ExpectAll(200, 0x9A2D, "Men-2");
  // A Men-2 leaf is one big corridor clique: pruning must show.
  EXPECT_LT(check.pruned_edges() * 5, check.oracle_edges());
}

TEST(LeafSearchPruningTest, Cl2PrunedSearchMatchesUnprunedOracle) {
  const Venue venue = synth::MakeDataset(synth::Dataset::kCL2, 0.2);
  const D2DGraph graph(venue);
  const IPTree tree = IPTree::Build(venue, graph);
  PruningCheck check(tree);
  check.ExpectAll(200, 0xC12, "CL-2");
  EXPECT_LE(check.pruned_edges(), check.oracle_edges());
}

TEST(LeafSearchPruningTest, RandomVenuesPrunedSearchMatchesUnprunedOracle) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const Venue venue = synth::RandomVenue(seed);
    const D2DGraph graph(venue);
    const IPTree tree = IPTree::Build(venue, graph);
    PruningCheck check(tree);
    check.ExpectAll(40, seed, "random venue " + std::to_string(seed));
    EXPECT_LE(check.pruned_edges(), check.oracle_edges());
  }
}

// The paper example's graph is explicit and its P1 clique is not metric:
// w(d1,d3) = 5.5 > w(d1,d2) + w(d2,d3) = 2 + 3. Its same-leaf answers must
// equal brute force, which they can only do unpruned.
class PaperPruningTest : public ::testing::Test {
 protected:
  PaperPruningTest() : example_(testing::MakePaperExample()) {}

  IPTree Tree(const D2DGraph& graph) const {
    return IPTree::Build(example_.venue, graph,
                         {.min_degree = 2,
                          .forced_leaf_assignment = example_.leaf_assignment});
  }

  testing::PaperExample example_;
};

TEST_F(PaperPruningTest, ExplicitGraphIsNeverPruned) {
  ASSERT_EQ(example_.graph.kind(), D2DGraph::Kind::kExplicit);
  const IPTree tree = Tree(example_.graph);
  const IPDistanceQuery query(tree);
  size_t same_leaf_pairs = 0;
  for (DoorId s = 0; s < 20; ++s) {
    for (DoorId t = 0; t < 20; ++t) {
      if (tree.CommonLeaf(s, t) == kInvalidId) continue;
      ++same_leaf_pairs;
      EXPECT_EQ(query.DoorDistance(s, t),
                BruteDoorDistance(example_.graph, s, t))
          << "d" << s + 1 << " -> d" << t + 1;
    }
  }
  EXPECT_GT(same_leaf_pairs, 20u);
  EXPECT_EQ(query.DoorDistance(testing::D(1), testing::D(3)), 5.0);
}

TEST_F(PaperPruningTest, GraphRelabelledGeometricIsPruned) {
  // The guard above must be able to fail: the same edges labelled
  // geometric pass the run check (every partition is a full clique) and
  // the pruned search keeps d1 -> d3 direct instead of the shorter detour
  // through d2 (d2 was entered through P1, so its P1 run is skipped).
  D2DGraph::Parts parts = example_.graph.ToParts();
  parts.kind = D2DGraph::Kind::kGeometric;
  const D2DGraph relabelled = D2DGraph::FromParts(std::move(parts));
  ASSERT_FALSE(relabelled.CheckRuns(example_.venue).has_value());
  const IPTree tree = Tree(relabelled);
  const IPDistanceQuery query(tree);
  EXPECT_EQ(BruteDoorDistance(relabelled, testing::D(1), testing::D(3)), 5.0);
  EXPECT_EQ(query.DoorDistance(testing::D(1), testing::D(3)), 5.5);
}

}  // namespace
}  // namespace viptree
