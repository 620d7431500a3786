// Bit-identity sweep for the cross-request distance cache: the cache
// memoizes exact outputs of deterministic functions of discrete keys
// (door-pair distances, door ascent vectors), so turning it on must never
// change a single bit of any answer. For 24 seeded random venues, run an
// interleaved stream of distance / path / kNN / range / boolean-kNN
// queries and live-object delta publishes through a cache-off engine and
// through a small LRU-cached engine, and require exact (==, not NEAR)
// agreement on every distance, door sequence and object id. A second pass
// over the same engine checks the repeat answers against the first ones.
// Point queries never reach the cache (only DoorDistance does), so the
// sweeps also pin that a cached engine serving them makes zero lookups.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_cache.h"
#include "engine/query_engine.h"
#include "engine/service.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

struct Step {
  std::optional<eng::Query> query;   // exactly one of query/delta is set
  std::optional<ObjectDelta> delta;
};

std::vector<std::vector<std::string>> TagObjects(size_t n) {
  std::vector<std::vector<std::string>> keywords(n);
  for (size_t i = 0; i < n; ++i) {
    keywords[i] = {"facility"};
    if (i % 2 == 0) keywords[i].push_back("red");
  }
  return keywords;
}

// A deterministic interleaved workload: ~5 queries of rotating type per
// round, one delta publish between rounds. Deltas are moves and adds only
// (ids stay valid no matter how many engines replay the stream).
std::vector<Step> MakeWorkload(const Venue& venue, uint64_t seed,
                               size_t initial_objects) {
  Rng rng(seed ^ 0xCACE);
  std::vector<Step> steps;
  size_t num_objects = initial_objects;
  for (int round = 0; round < 6; ++round) {
    for (int q = 0; q < 5; ++q) {
      const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
      const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
      Step step;
      switch ((round * 5 + q) % 5) {
        case 0:
          step.query = eng::Query::Distance(a, b);
          break;
        case 1:
          step.query = eng::Query::Path(a, b);
          break;
        case 2:
          step.query = eng::Query::Knn(a, 3);
          break;
        case 3:
          step.query = eng::Query::Range(a, 60.0);
          break;
        default:
          step.query = eng::Query::BooleanKnn(a, 2, {"red"});
          break;
      }
      steps.push_back(std::move(step));
    }
    Step update;
    ObjectDelta delta;
    if (num_objects > 0 && rng.Chance(0.7)) {
      delta.moves.push_back(
          {static_cast<ObjectId>(rng.UniformIndex(num_objects)),
           synth::RandomIndoorPoint(venue, rng)});
    } else {
      ObjectDelta::Add add;
      add.at = synth::RandomIndoorPoint(venue, rng);
      add.keywords = {"facility"};
      delta.adds.push_back(std::move(add));
      ++num_objects;
    }
    update.delta = std::move(delta);
    steps.push_back(std::move(update));
  }
  return steps;
}

// Replays the workload and records every answer. `passes` > 1 repeats the
// query stream (deltas only on the first pass) so a warm cache serves the
// repeat — the repeat answers are appended and compared like the rest.
std::vector<eng::Result> Replay(eng::QueryEngine& engine,
                                const std::vector<Step>& steps, int passes) {
  std::vector<eng::Result> results;
  for (int pass = 0; pass < passes; ++pass) {
    for (const Step& step : steps) {
      if (step.delta.has_value()) {
        if (pass == 0) {
          const std::optional<std::string> error =
              engine.ApplyObjectDelta(*step.delta);
          EXPECT_FALSE(error.has_value()) << *error;
        }
        continue;
      }
      results.push_back(engine.Run(*step.query));
    }
  }
  return results;
}

class CacheDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheDifferentialTest, AllPoliciesBitIdenticalToCacheOff) {
  const uint64_t seed = GetParam();
  const Venue venue = testing::RandomSynthVenue(seed);
  const D2DGraph graph(venue);
  Rng rng(seed ^ 0x0B7EC7);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, 8, rng);
  const std::vector<Step> steps = MakeWorkload(venue, seed, objects.size());

  eng::EngineOptions options;
  options.object_keywords = TagObjects(objects.size());

  // Reference: cache off, two passes (the second pass answers must match
  // the first regardless of caching, since no deltas land between them).
  eng::QueryEngine reference(venue, graph, objects, options);
  ASSERT_EQ(reference.distance_cache(), nullptr);
  const std::vector<eng::Result> expected = Replay(reference, steps, 2);

  eng::QueryEngine engine(venue, graph, objects, options);
  DistanceCacheOptions cache_options;
  // Small, as a served venue's cache would be under pressure.
  cache_options.capacity = 512;
  cache_options.shards = 2;
  engine.EnableDistanceCache(cache_options);
  ASSERT_NE(engine.distance_cache(), nullptr);

  const std::vector<eng::Result> actual = Replay(engine, steps, 2);
  // Exact comparisons throughout: the cache must be invisible in the
  // output down to the last ulp.
  testing::ExpectSameResults(expected, actual,
                             "lru seed " + std::to_string(seed),
                             /*compare_visited=*/false);
  // Point queries read tree structure, never the cache.
  EXPECT_EQ(engine.distance_cache()->Counters().lookups(), 0u)
      << "seed " << seed;
}

// A Service with ServiceOptions::cache: every worker engine shares the
// venue's one cache, and the served answers must match the sequential
// cache-off reference exactly.
TEST_P(CacheDifferentialTest, SharedCacheBatchMatchesSequential) {
  const uint64_t seed = GetParam();
  if (seed % 4 != 0) GTEST_SKIP() << "batch sweep runs on every 4th seed";
  const Venue venue = testing::RandomSynthVenue(seed);
  const D2DGraph graph(venue);
  Rng rng(seed ^ 0xBA7C);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, 6, rng);

  std::vector<eng::Query> queries;
  for (int i = 0; i < 40; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
    switch (i % 4) {
      case 0: queries.push_back(eng::Query::Distance(a, b)); break;
      case 1: queries.push_back(eng::Query::Path(a, b)); break;
      case 2: queries.push_back(eng::Query::Knn(a, 3)); break;
      default: queries.push_back(eng::Query::Range(a, 80.0)); break;
    }
  }

  eng::QueryEngine plain(venue, graph, objects);
  const std::vector<eng::Result> expected = plain.RunSequential(queries);

  const auto bundle = std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::BuildFrom(venue, graph, objects));
  eng::ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.cache.enabled = true;
  service_options.cache.capacity = 256;
  eng::ServiceStats stats;
  const std::vector<eng::Result> served =
      testing::ServeInOrder(bundle, service_options, queries, &stats);

  testing::ExpectSameResults(expected, served,
                             "service seed " + std::to_string(seed),
                             /*compare_visited=*/false);
  EXPECT_EQ(stats.cache.lookups(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialTest,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace viptree
