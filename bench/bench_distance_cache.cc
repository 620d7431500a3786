// A/B benchmark for the cross-request distance cache
// (core/distance_cache.h): cache off vs the LRU cache on zone-skewed
// repeat workloads — the access pattern the cache exists for (venue users
// keep asking about the same lobby/entrance/POI doors, with a uniform
// cold tail on top).
//
// Two workloads:
//   (a) door-pair: VIPDistanceQuery::DoorDistance over pairs where 90% of
//       endpoints come from a small hot door set and 10% are uniform cold
//       scans. Capacity is set well below the total key population so the
//       cold tail applies real eviction pressure.
//   (b) engine-level: the mixed serving workload (distance/path/kNN/range)
//       through engine::QueryEngine with query points drawn from a small
//       hot pool 90% of the time.
//
// Prints p50/avg latency, hit rate and evictions per configuration.
// Results are bit-identical with and without the cache (it memoizes exact
// values); the bench CHECKs that as it runs. Respects VIPTREE_SCALE /
// VIPTREE_QUERIES like every other bench.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "core/distance_cache.h"
#include "core/distance_query.h"
#include "core/vip_tree.h"
#include "engine/query_engine.h"

namespace viptree {
namespace bench {
namespace {

constexpr double kHotFraction = 0.9;
constexpr size_t kHotDoors = 32;
constexpr size_t kHotPoints = 64;
constexpr size_t kChunk = 32;  // queries per latency sample

struct CacheRun {
  std::string name;
  Summary latency_micros;  // per-query, sampled per kChunk queries
  double avg_micros = 0.0;
  CacheCounters counters;
  bool cached = false;
};

// The skewed door-pair stream: mostly repeats over a small hot set, with a
// uniform cold tail that churns the cache.
std::vector<std::pair<DoorId, DoorId>> DoorPairWorkload(const Venue& venue,
                                                        size_t n,
                                                        uint64_t seed) {
  Rng rng(seed);
  const size_t num_doors = venue.NumDoors();
  std::vector<DoorId> hot;
  hot.reserve(kHotDoors);
  for (size_t i = 0; i < kHotDoors && i < num_doors; ++i) {
    hot.push_back(static_cast<DoorId>(rng.UniformIndex(num_doors)));
  }
  std::vector<std::pair<DoorId, DoorId>> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Chance(kHotFraction)) {
      pairs.emplace_back(hot[rng.UniformIndex(hot.size())],
                         hot[rng.UniformIndex(hot.size())]);
    } else {
      pairs.emplace_back(static_cast<DoorId>(rng.UniformIndex(num_doors)),
                         static_cast<DoorId>(rng.UniformIndex(num_doors)));
    }
  }
  return pairs;
}

// Runs the door-pair workload through a fresh VIPDistanceQuery, optionally
// with a cache, and checks every answer against the cache-off reference.
CacheRun RunDoorPairs(const VIPTree& tree,
                       const std::vector<std::pair<DoorId, DoorId>>& pairs,
                       const char* name, DistanceCache* cache,
                       const std::vector<double>* reference,
                       std::vector<double>* answers) {
  CacheRun run;
  run.name = name;
  run.cached = cache != nullptr;
  VIPDistanceQuery query(tree, {}, cache);
  std::vector<double> samples;
  samples.reserve(pairs.size() / kChunk + 1);
  answers->clear();
  answers->reserve(pairs.size());
  double total = 0.0;
  for (size_t i = 0; i < pairs.size(); i += kChunk) {
    const size_t end = std::min(pairs.size(), i + kChunk);
    const Timer timer;
    for (size_t j = i; j < end; ++j) {
      answers->push_back(query.DoorDistance(pairs[j].first, pairs[j].second));
    }
    const double elapsed = timer.ElapsedMicros();
    total += elapsed;
    samples.push_back(elapsed / static_cast<double>(end - i));
  }
  if (reference != nullptr) {
    // Exactness contract: the cache must never change a single bit.
    VIPTREE_CHECK_MSG(*answers == *reference,
                      "cached DoorDistance diverged from cache-off");
  }
  run.latency_micros = Summarize(samples);
  run.avg_micros = total / static_cast<double>(pairs.size());
  if (cache != nullptr) run.counters = cache->Counters();
  return run;
}

// The engine-level mixed workload with hot-pool repeats: 90% of queries
// reuse one of kHotPoints query points, 10% are fresh uniform points.
std::vector<engine::Query> SkewedEngineWorkload(const Venue& venue, size_t n,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<IndoorPoint> pool;
  pool.reserve(kHotPoints);
  for (size_t i = 0; i < kHotPoints; ++i) {
    pool.push_back(synth::RandomIndoorPoint(venue, rng));
  }
  auto point = [&]() -> IndoorPoint {
    if (rng.Chance(kHotFraction)) return pool[rng.UniformIndex(pool.size())];
    return synth::RandomIndoorPoint(venue, rng);
  };
  std::vector<engine::Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const IndoorPoint a = point();
    const IndoorPoint b = point();
    switch (i % 10) {
      case 0: case 1: case 2: case 3:
        queries.push_back(engine::Query::Distance(a, b));
        break;
      case 4: case 5:
        queries.push_back(engine::Query::Path(a, b));
        break;
      case 6: case 7: case 8:
        queries.push_back(engine::Query::Knn(a, 5));
        break;
      default:
        queries.push_back(engine::Query::Range(a, 100.0));
        break;
    }
  }
  return queries;
}

CacheRun RunEngineWorkload(engine::QueryEngine& engine,
                            const std::vector<engine::Query>& queries,
                            const char* name) {
  CacheRun run;
  run.name = name;
  run.cached = engine.distance_cache() != nullptr;
  std::vector<double> samples;
  samples.reserve(queries.size() / kChunk + 1);
  double total = 0.0;
  for (size_t i = 0; i < queries.size(); i += kChunk) {
    const size_t end = std::min(queries.size(), i + kChunk);
    const Timer timer;
    for (size_t j = i; j < end; ++j) engine.Run(queries[j]);
    const double elapsed = timer.ElapsedMicros();
    total += elapsed;
    samples.push_back(elapsed / static_cast<double>(end - i));
  }
  run.latency_micros = Summarize(samples);
  run.avg_micros = total / static_cast<double>(queries.size());
  if (run.cached) run.counters = engine.distance_cache()->Counters();
  return run;
}

void PrintTable(const char* title, const std::vector<CacheRun>& runs) {
  std::printf("%s\n", title);
  std::printf("  %-8s %12s %12s %10s %12s\n", "cache", "p50 us", "avg us",
              "hit rate", "evictions");
  for (const CacheRun& run : runs) {
    if (run.cached) {
      std::printf("  %-8s %12.3f %12.3f %9.1f%% %12llu\n", run.name.c_str(),
                  run.latency_micros.p50, run.avg_micros,
                  100.0 * run.counters.hit_rate(),
                  static_cast<unsigned long long>(run.counters.evictions));
    } else {
      std::printf("  %-8s %12.3f %12.3f %10s %12s\n", run.name.c_str(),
                  run.latency_micros.p50, run.avg_micros, "-", "-");
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() {
  using namespace viptree;
  using namespace viptree::bench;

  const synth::Dataset dataset = synth::Dataset::kMen2;
  DatasetBundle& data = GetDataset(dataset);
  std::printf("dataset %s: %zu partitions, %zu doors\n",
              data.info.name.c_str(), data.venue.NumPartitions(),
              data.venue.NumDoors());

  const VIPTree tree = VIPTree::Build(data.venue, data.graph, {});
  const size_t door_queries = NumQueries() * 20;
  const size_t engine_queries = NumQueries() * 4;

  const std::vector<std::pair<DoorId, DoorId>> pairs =
      DoorPairWorkload(data.venue, door_queries, /*seed=*/0x5EED);

  // Capacity far below the cold-tail key population, comfortably above the
  // hot set: the cache must keep the hot pairs resident through the
  // cold-scan churn.
  DistanceCacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.capacity = 2048;

  {
    std::vector<CacheRun> runs;
    std::vector<double> reference;
    std::vector<double> answers;
    runs.push_back(
        RunDoorPairs(tree, pairs, "off", nullptr, nullptr, &reference));
    DistanceCache cache(cache_options);
    runs.push_back(
        RunDoorPairs(tree, pairs, "lru", &cache, &reference, &answers));
    PrintTable(
        ("door-pair workload: " + std::to_string(pairs.size()) +
         " queries, 90% over " + std::to_string(kHotDoors) +
         " hot doors, capacity " + std::to_string(cache_options.capacity))
            .c_str(),
        runs);
  }

  {
    engine::QueryEngine engine(
        engine::VenueBundle::BuildFrom(data.venue, data.graph,
                                       Objects(dataset, 50)));
    const std::vector<engine::Query> queries =
        SkewedEngineWorkload(data.venue, engine_queries, /*seed=*/0xCAFE);
    std::vector<CacheRun> runs;
    runs.push_back(RunEngineWorkload(engine, queries, "off"));
    engine.EnableDistanceCache(cache_options);
    runs.push_back(RunEngineWorkload(engine, queries, "lru"));
    PrintTable(("engine mixed workload: " + std::to_string(queries.size()) +
                " queries, 90% over " + std::to_string(kHotPoints) +
                " hot points")
                   .c_str(),
               runs);
  }
  return 0;
}
