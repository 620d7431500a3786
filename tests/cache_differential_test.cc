// Bit-identity sweep for the cross-request distance cache: the cache
// memoizes exact outputs of deterministic functions of discrete keys
// (door-pair distances, ascent vectors, index maps), so turning it on —
// with eviction pressure — must never change a single bit of any answer.
// For 24 seeded random venues, run an interleaved stream of distance /
// path / kNN / range / boolean-kNN queries and live-object delta
// publishes through a cache-off engine and through a small LRU-cached
// engine, and require exact (==, not NEAR) agreement on every distance,
// door sequence and object id. A second pass over the same engine checks
// warm-cache answers against the cold ones.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/distance_cache.h"
#include "engine/query_engine.h"
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

void ExpectBitIdentical(const std::vector<eng::Result>& actual,
                        const std::vector<eng::Result>& expected,
                        const char* what, uint64_t seed) {
  ASSERT_EQ(actual.size(), expected.size()) << what << " seed " << seed;
  for (size_t i = 0; i < actual.size(); ++i) {
    // Exact comparisons throughout: the cache must be invisible in the
    // output down to the last ulp.
    EXPECT_EQ(actual[i].distance, expected[i].distance)
        << what << " seed " << seed << " step " << i;
    EXPECT_EQ(actual[i].doors, expected[i].doors)
        << what << " seed " << seed << " step " << i;
    ASSERT_EQ(actual[i].objects.size(), expected[i].objects.size())
        << what << " seed " << seed << " step " << i;
    for (size_t j = 0; j < actual[i].objects.size(); ++j) {
      EXPECT_EQ(actual[i].objects[j].object, expected[i].objects[j].object)
          << what << " seed " << seed << " step " << i << " j=" << j;
      EXPECT_EQ(actual[i].objects[j].distance,
                expected[i].objects[j].distance)
          << what << " seed " << seed << " step " << i << " j=" << j;
    }
  }
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

  eng::EngineOptions cached_options = options;
  cached_options.cache.enabled = true;
  // Small enough that the sweep exercises eviction, not just lookups.
  cached_options.cache.capacity = 512;
  cached_options.cache.shards = 2;
  eng::QueryEngine engine(venue, graph, objects, cached_options);
  ASSERT_NE(engine.distance_cache(), nullptr);

  const std::vector<eng::Result> actual = Replay(engine, steps, 2);
  ExpectBitIdentical(actual, expected, "lru", seed);
  // The workload repeats its query stream, so on a multi-leaf venue the
  // cache must have served real hits while producing identical answers.
  // (A single-leaf venue never leaves the Dijkstra fast path, so there is
  // legitimately no cache traffic there.)
  if (engine.tree().base().num_leaves() > 1) {
    EXPECT_GT(engine.distance_cache()->Counters().hits, 0u) << "seed " << seed;
  }
}

// RunBatch shares the resident cache across its transient service workers;
// the batch answers must match the sequential cache-off reference exactly.
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

  eng::EngineOptions cached_options;
  cached_options.cache.enabled = true;
  cached_options.cache.capacity = 256;
  eng::QueryEngine cached(venue, graph, objects, cached_options);
  eng::BatchOptions batch;
  batch.num_threads = 4;
  const eng::BatchResult run = cached.RunBatch(queries, batch);

  ExpectBitIdentical(run.results, expected, "batch", seed);
  if (cached.tree().base().num_leaves() > 1) {
    EXPECT_GT(cached.distance_cache()->Counters().lookups(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialTest,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace viptree
