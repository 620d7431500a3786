// A/B benchmark for the cross-request distance cache
// (core/distance_cache.h): cache off vs the LRU cache on a zone-skewed
// door-pair workload — VIPDistanceQuery::DoorDistance, the only call that
// reaches the cache, over pairs where 90% of endpoints come from a small
// hot door set and 10% are uniform cold scans. Capacity is set well below
// the total key population so the cold tail applies real eviction
// pressure. (Point queries never touch the cache, so an engine-level A/B
// would compare identical code.)
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

namespace viptree {
namespace bench {
namespace {

constexpr double kHotFraction = 0.9;
constexpr size_t kHotDoors = 32;
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

  const std::vector<std::pair<DoorId, DoorId>> pairs =
      DoorPairWorkload(data.venue, door_queries, /*seed=*/0x5EED);

  // Capacity far below the cold-tail key population, comfortably above the
  // hot set: the cache must keep the hot pairs resident through the
  // cold-scan churn.
  DistanceCacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.capacity = 2048;

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
  return 0;
}
