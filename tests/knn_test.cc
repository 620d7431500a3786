#include "core/knn_query.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/live_objects.h"
#include "ground_truth.h"
#include "synth/building_generator.h"
#include "synth/campus_generator.h"
#include "synth/objects.h"

namespace viptree {
namespace {

struct KnnEnv {
  Venue venue;
  D2DGraph graph;
  IPTree tree;
  std::vector<IndoorPoint> objects;

  KnnEnv(Venue v, size_t num_objects, uint64_t seed)
      : venue(std::move(v)),
        graph(venue),
        tree(IPTree::Build(venue, graph)),
        objects([this, num_objects, seed] {
          Rng rng(seed);
          return synth::PlaceObjects(venue, num_objects, rng);
        }()) {}
};

KnnEnv MakeBuildingSetup(size_t num_objects, uint64_t seed) {
  synth::BuildingConfig cfg;
  cfg.floors = 4;
  cfg.rooms_per_floor = 24;
  cfg.staircases = 2;
  cfg.lifts = 1;
  return KnnEnv(synth::GenerateStandaloneBuilding(cfg, 200), num_objects,
               seed);
}

class KnnPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KnnPropertyTest, MatchesBruteForce) {
  const size_t k = GetParam();
  KnnEnv env = MakeBuildingSetup(12, 42);
  ObjectIndex index(env.tree, env.objects);
  KnnQuery knn(env.tree, index);

  Rng rng(900);
  for (int i = 0; i < 25; ++i) {
    const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
    const auto expected = testing::BruteAllObjectDistances(
        env.venue, env.graph, q, env.objects);
    const auto actual = knn.Knn(q, k);
    ASSERT_EQ(actual.size(), std::min(k, env.objects.size()));
    for (size_t j = 0; j < actual.size(); ++j) {
      // Distances must match; ids may differ under exact ties.
      EXPECT_NEAR(actual[j].distance, expected[j].distance,
                  1e-3 + expected[j].distance * 1e-5)
          << "k=" << k << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnPropertyTest,
                         ::testing::Values(1u, 3u, 5u, 10u));

TEST(KnnQueryTest, KLargerThanObjectCount) {
  KnnEnv env = MakeBuildingSetup(4, 7);
  ObjectIndex index(env.tree, env.objects);
  KnnQuery knn(env.tree, index);
  Rng rng(901);
  const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
  const auto results = knn.Knn(q, 50);
  EXPECT_EQ(results.size(), 4u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].distance, results[i - 1].distance);
  }
}

TEST(KnnQueryTest, ObjectInQueryPartition) {
  KnnEnv env = MakeBuildingSetup(10, 8);
  ObjectIndex index(env.tree, env.objects);
  KnnQuery knn(env.tree, index);
  // Query from exactly an object's partition: that object must be the 1NN
  // with (near) zero-ish distance.
  const IndoorPoint q = env.objects[3];
  const auto results = knn.Knn(q, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(results[0].distance, 0.0, 1e-9);
  EXPECT_EQ(results[0].object, 3);
}

TEST(KnnQueryTest, EmptyObjectSet) {
  KnnEnv env = MakeBuildingSetup(5, 9);
  ObjectIndex index(env.tree, {});
  KnnQuery knn(env.tree, index);
  Rng rng(902);
  const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
  EXPECT_TRUE(knn.Knn(q, 3).empty());
}

class RangePropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(RangePropertyTest, MatchesBruteForce) {
  const double radius = GetParam();
  KnnEnv env = MakeBuildingSetup(20, 43);
  ObjectIndex index(env.tree, env.objects);
  KnnQuery range(env.tree, index);

  Rng rng(903);
  for (int i = 0; i < 20; ++i) {
    const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
    const auto expected = testing::BruteAllObjectDistances(
        env.venue, env.graph, q, env.objects);
    size_t expected_count = 0;
    for (const auto& e : expected) {
      if (e.distance <= radius) ++expected_count;
    }
    const auto actual = range.WithinRange(q, radius);
    EXPECT_EQ(actual.size(), expected_count) << "radius=" << radius;
    for (const auto& r : actual) {
      EXPECT_LE(r.distance, radius);
      EXPECT_NEAR(
          r.distance,
          testing::BruteDistance(env.venue, env.graph, q,
                                 env.objects[r.object]),
          1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, RangePropertyTest,
                         ::testing::Values(10.0, 50.0, 100.0, 1000.0));

TEST(KnnCampusTest, WorksAcrossBuildings) {
  KnnEnv env(synth::GenerateCampus(synth::MixedCampusConfig(4, 0.12, 44)),
              15, 45);
  ObjectIndex index(env.tree, env.objects);
  KnnQuery knn(env.tree, index);
  Rng rng(904);
  for (int i = 0; i < 10; ++i) {
    const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
    const auto expected = testing::BruteAllObjectDistances(
        env.venue, env.graph, q, env.objects);
    const auto actual = knn.Knn(q, 5);
    ASSERT_EQ(actual.size(), 5u);
    for (size_t j = 0; j < actual.size(); ++j) {
      EXPECT_NEAR(actual[j].distance, expected[j].distance, 1e-3);
    }
  }
}

TEST(ObjectIndexTest, SubtreeCountsAreConsistent) {
  KnnEnv env = MakeBuildingSetup(16, 46);
  ObjectIndex index(env.tree, env.objects);
  EXPECT_EQ(index.SubtreeCount(env.tree.node(env.tree.root())), 16u);
  size_t leaf_total = 0;
  for (const TreeNode& n : env.tree.nodes()) {
    if (n.is_leaf()) {
      leaf_total += index.ObjectsInLeaf(n.id).size();
      EXPECT_EQ(index.SubtreeCount(n), index.ObjectsInLeaf(n.id).size());
    }
  }
  EXPECT_EQ(leaf_total, 16u);
}

// The documented order is ascending by (distance, id), so co-located
// objects (bit-equal distances) come back by ascending id, and a tie at the
// kth place keeps the smaller ids: every Knn(q, k) is the k-prefix of the
// full ranking.
void ExpectRankedByDistanceThenId(const std::vector<ObjectResult>& full,
                                  const std::function<std::vector<ObjectResult>(
                                      size_t)>& knn,
                                  const char* what) {
  for (size_t j = 1; j < full.size(); ++j) {
    const bool ordered =
        full[j - 1].distance < full[j].distance ||
        (full[j - 1].distance == full[j].distance &&
         full[j - 1].object < full[j].object);
    EXPECT_TRUE(ordered) << what << " j=" << j << ": " << full[j - 1].object
                         << "@" << full[j - 1].distance << " before "
                         << full[j].object << "@" << full[j].distance;
  }
  for (size_t k = 1; k <= full.size(); ++k) {
    const std::vector<ObjectResult> got = knn(k);
    ASSERT_EQ(got.size(), k) << what << " k=" << k;
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(got[j].object, full[j].object) << what << " k=" << k;
      EXPECT_EQ(got[j].distance, full[j].distance) << what << " k=" << k;
    }
  }
}

TEST(KnnQueryTest, TiesRankByIdAcrossTwoLeaves) {
  KnnEnv env = MakeBuildingSetup(40, 47);
  // Two co-located groups in different leaves, with interleaved ids:
  // even ids at a, odd ids at b (three each).
  const IndoorPoint a = env.objects[0];
  const NodeId leaf_a = env.tree.LeafOfPartition(a.partition);
  IndoorPoint b = a;
  for (const IndoorPoint& p : env.objects) {
    if (env.tree.LeafOfPartition(p.partition) != leaf_a) {
      b = p;
      break;
    }
  }
  ASSERT_NE(env.tree.LeafOfPartition(b.partition), leaf_a);
  std::vector<IndoorPoint> objects;
  for (int i = 0; i < 6; ++i) objects.push_back(i % 2 == 0 ? a : b);
  ObjectIndex index(env.tree, objects);
  KnnQuery knn(env.tree, index);
  LiveObjectIndex live(env.tree, objects);
  const SnapshotQuery snap(env.tree, live.Acquire());

  Rng rng(905);
  // The first two sources sit in each group's own leaf (the one-Dijkstra
  // leaf scan), the rest anywhere (the packed-row scan).
  std::vector<IndoorPoint> sources = {a, b};
  for (int i = 0; i < 6; ++i) {
    sources.push_back(synth::RandomIndoorPoint(env.venue, rng));
  }
  for (const IndoorPoint& q : sources) {
    const std::vector<ObjectResult> full = knn.Knn(q, objects.size());
    ASSERT_EQ(full.size(), objects.size());
    ExpectRankedByDistanceThenId(
        full, [&](size_t k) { return knn.Knn(q, k); }, "KnnQuery");
    ExpectRankedByDistanceThenId(
        full, [&](size_t k) { return snap.Knn(q, k); }, "SnapshotQuery");
  }

  // An overlay entry joining a packed group ranks among it by id.
  ObjectDelta delta;
  delta.moves.push_back({1, a});
  ASSERT_FALSE(live.ApplyDelta(delta).has_value());
  const SnapshotQuery moved(env.tree, live.Acquire());
  ASSERT_EQ(moved.snapshot().overlay.size(), 1u);
  objects[1] = a;
  ObjectIndex merged_index(env.tree, objects);
  KnnQuery merged(env.tree, merged_index);
  for (const IndoorPoint& q : sources) {
    const std::vector<ObjectResult> full = merged.Knn(q, objects.size());
    ExpectRankedByDistanceThenId(
        full, [&](size_t k) { return moved.Knn(q, k); }, "overlay");
  }
}

}  // namespace
}  // namespace viptree
