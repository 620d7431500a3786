// Randomized differential tests: for seeded random synthetic venues
// (standalone buildings and mini-campuses, shapes drawn from the seed), the
// VIP-Tree / IP-Tree answers for distance, path, kNN, range and boolean
// keyword queries must match brute-force Dijkstra ground truth, and the
// QueryEngine batch path must return exactly what the sequential path
// returns. This is the survey's (arXiv:2010.03910) observation turned into
// a test: indoor indexes diverge on large/irregular topologies, so we sweep
// seeds instead of trusting the paper example.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/distance_query.h"
#include "core/path_query.h"
#include "engine/query_engine.h"
#include "graph/d2d_graph.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// Absolute + relative tolerance: leaf/ext matrices store float, queries
// accumulate in double.
double Tol(double reference) {
  return 1e-2 + std::abs(reference) * 1e-4;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  DifferentialTest()
      : venue_(testing::RandomSynthVenue(GetParam())), graph_(venue_) {}

  // Objects with alternating keyword tags so boolean kNN has a real filter.
  static std::vector<std::vector<std::string>> TagObjects(size_t n) {
    std::vector<std::vector<std::string>> keywords(n);
    for (size_t i = 0; i < n; ++i) {
      keywords[i] = {"facility"};
      if (i % 2 == 0) keywords[i].push_back("red");
    }
    return keywords;
  }

  Venue venue_;
  D2DGraph graph_;
};

TEST_P(DifferentialTest, DistanceAndPathMatchDijkstra) {
  const uint64_t seed = GetParam();
  const eng::QueryEngine engine(venue_, graph_, /*objects=*/{});
  const IPDistanceQuery ip(engine.tree().base());
  Rng rng(seed ^ 0xD1FF);

  for (int i = 0; i < 10; ++i) {
    const IndoorPoint s = synth::RandomIndoorPoint(venue_, rng);
    const IndoorPoint t = synth::RandomIndoorPoint(venue_, rng);
    const double expected = testing::BruteDistance(venue_, graph_, s, t);

    const eng::Result d = engine.Run(eng::Query::Distance(s, t));
    EXPECT_NEAR(d.distance, expected, Tol(expected))
        << "seed " << seed << " pair " << i << " (VIP distance)";
    EXPECT_NEAR(ip.Distance(s, t), expected, Tol(expected))
        << "seed " << seed << " pair " << i << " (IP distance)";

    // The recovered door sequence must be walkable and sum to the distance.
    const eng::Result p = engine.Run(eng::Query::Path(s, t));
    EXPECT_NEAR(p.distance, expected, Tol(expected))
        << "seed " << seed << " pair " << i << " (VIP path distance)";
    EXPECT_NEAR(testing::PointPathLength(venue_, graph_, s, t, p.doors),
                p.distance, Tol(p.distance))
        << "seed " << seed << " pair " << i << " (path length)";
  }
}

TEST_P(DifferentialTest, ObjectQueriesMatchBruteForce) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x0B7EC7);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue_, 10, rng);
  eng::EngineOptions options;
  options.object_keywords = TagObjects(objects.size());
  const eng::QueryEngine engine(venue_, graph_, objects, options);

  for (int i = 0; i < 5; ++i) {
    const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);
    const auto all = testing::BruteAllObjectDistances(venue_, graph_, q,
                                                      objects);

    // kNN: the distance sequence must match (ids may differ under ties).
    for (const size_t k : {1u, 4u}) {
      const auto actual = engine.Run(eng::Query::Knn(q, k)).objects;
      ASSERT_EQ(actual.size(), std::min<size_t>(k, objects.size()))
          << "seed " << seed;
      for (size_t j = 0; j < actual.size(); ++j) {
        EXPECT_NEAR(actual[j].distance, all[j].distance, Tol(all[j].distance))
            << "seed " << seed << " k=" << k << " j=" << j;
      }
    }

    // Range at the median object distance: same count, same distances.
    const double radius = all[all.size() / 2].distance;
    if (radius == kInfDistance) continue;
    const auto expected_range =
        testing::BruteRange(venue_, graph_, q, objects, radius);
    const auto actual_range =
        engine.Run(eng::Query::Range(q, radius)).objects;
    // Tolerance at the radius boundary: counts may differ by the objects
    // within Tol of the cut; compare only the strict interior.
    size_t strict = 0;
    for (const auto& r : expected_range) {
      if (r.distance < radius - Tol(radius)) ++strict;
    }
    ASSERT_GE(actual_range.size(), strict) << "seed " << seed;
    for (size_t j = 0; j < actual_range.size(); ++j) {
      EXPECT_LE(actual_range[j].distance, radius + Tol(radius))
          << "seed " << seed;
      EXPECT_NEAR(actual_range[j].distance, all[j].distance,
                  Tol(all[j].distance))
          << "seed " << seed << " j=" << j;
    }

    // Boolean kNN over the "red" half must equal brute force over that
    // subset.
    std::vector<IndoorPoint> red;
    for (size_t o = 0; o < objects.size(); o += 2) red.push_back(objects[o]);
    const auto red_truth = testing::BruteKnn(venue_, graph_, q, red, 3);
    const auto red_actual =
        engine.Run(eng::Query::BooleanKnn(q, 3, {"red"})).objects;
    ASSERT_EQ(red_actual.size(), std::min<size_t>(3, red.size()))
        << "seed " << seed;
    for (size_t j = 0; j < red_actual.size(); ++j) {
      EXPECT_EQ(red_actual[j].object % 2, 0) << "seed " << seed;
      EXPECT_NEAR(red_actual[j].distance, red_truth[j].distance,
                  Tol(red_truth[j].distance))
          << "seed " << seed << " j=" << j;
    }
  }
}

TEST_P(DifferentialTest, BatchMatchesSequential) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0xBA7C4);
  const std::vector<IndoorPoint> objects = synth::PlaceObjects(venue_, 8, rng);
  eng::EngineOptions options;
  options.object_keywords = TagObjects(objects.size());
  const eng::QueryEngine engine(venue_, graph_, objects, options);

  std::vector<eng::Query> batch;
  for (int i = 0; i < 60; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(venue_, rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue_, rng);
    switch (i % 5) {
      case 0:
        batch.push_back(eng::Query::Distance(a, b));
        break;
      case 1:
        batch.push_back(eng::Query::Path(a, b));
        break;
      case 2:
        batch.push_back(eng::Query::Knn(a, 3));
        break;
      case 3:
        batch.push_back(eng::Query::Range(a, 80.0));
        break;
      default:
        batch.push_back(eng::Query::BooleanKnn(a, 2, {"red"}));
        break;
    }
  }

  const std::vector<eng::Result> sequential = engine.RunSequential(batch);
  const eng::BatchResult batched =
      engine.RunBatch(batch, {/*num_threads=*/4});

  ASSERT_EQ(batched.results.size(), sequential.size());
  EXPECT_EQ(batched.stats.num_queries, batch.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    const eng::Result& a = sequential[i];
    const eng::Result& b = batched.results[i];
    EXPECT_EQ(a.type, b.type);
    // Identical deterministic code on identical inputs: results must agree
    // exactly, regardless of which worker ran the query.
    EXPECT_EQ(a.distance, b.distance) << "seed " << seed << " query " << i;
    EXPECT_EQ(a.doors, b.doors) << "seed " << seed << " query " << i;
    ASSERT_EQ(a.objects.size(), b.objects.size())
        << "seed " << seed << " query " << i;
    for (size_t j = 0; j < a.objects.size(); ++j) {
      EXPECT_EQ(a.objects[j].object, b.objects[j].object)
          << "seed " << seed << " query " << i;
      EXPECT_EQ(a.objects[j].distance, b.objects[j].distance)
          << "seed " << seed << " query " << i;
    }
    EXPECT_EQ(a.visited_nodes, b.visited_nodes)
        << "seed " << seed << " query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(0, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace viptree
