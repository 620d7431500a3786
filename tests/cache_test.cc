// Unit tests for the cross-request distance cache (core/distance_cache.h):
// entry-kind isolation, counters, Clear, sharding bounds, LRU eviction
// order (driven through the public API with shards=1 so eviction order is
// deterministic), a concurrency
// smoke (the suite runs under TSan via the `cache` ctest label), and the
// DoorDistance regression for multi-leaf boundary doors whose LCA index
// lookups used to go unchecked.

#include "core/distance_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/distance_query.h"
#include "core/ip_tree.h"
#include "core/vip_tree.h"
#include "engine/query_engine.h"
#include "graph/dijkstra.h"
#include "ground_truth.h"

namespace viptree {
namespace {

DistanceCacheOptions SingleShard(size_t capacity) {
  DistanceCacheOptions options;
  options.enabled = true;
  options.capacity = capacity;
  options.shards = 1;
  return options;
}

TEST(DistanceCacheTest, ScalarRoundTripAndCounters) {
  DistanceCache cache(SingleShard(8));
  double out = 0.0;
  EXPECT_FALSE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 2, &out));
  cache.InsertScalar(CacheKind::kIpDoorPair, 1, 2, 42.5);
  ASSERT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 2, &out));
  EXPECT_EQ(out, 42.5);

  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.insertions, 1u);
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.lookups(), 2u);
  EXPECT_DOUBLE_EQ(counters.hit_rate(), 0.5);
  EXPECT_EQ(cache.Size(), 1u);
}

TEST(DistanceCacheTest, KindsDoNotCollide) {
  DistanceCache cache(SingleShard(16));
  cache.InsertScalar(CacheKind::kIpDoorPair, 3, 4, 1.0);
  cache.InsertScalar(CacheKind::kVipDoorPair, 3, 4, 2.0);
  cache.InsertDistVector(CacheKind::kIpDoorAscent, 3, 4, {3.0, 4.0});

  double s = 0.0;
  ASSERT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 3, 4, &s));
  EXPECT_EQ(s, 1.0);
  ASSERT_TRUE(cache.LookupScalar(CacheKind::kVipDoorPair, 3, 4, &s));
  EXPECT_EQ(s, 2.0);
  std::vector<double> dist;
  ASSERT_TRUE(cache.LookupDistVector(CacheKind::kIpDoorAscent, 3, 4, &dist));
  EXPECT_EQ(dist, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(cache.Size(), 3u);

  // Ordered keys: (4, 3) is not (3, 4).
  EXPECT_FALSE(cache.LookupScalar(CacheKind::kIpDoorPair, 4, 3, &s));
}

TEST(DistanceCacheTest, ClearDropsEntriesKeepsCounters) {
  DistanceCache cache(SingleShard(8));
  cache.InsertScalar(CacheKind::kIpDoorPair, 1, 1, 1.0);
  double out;
  ASSERT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 1, &out));
  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_FALSE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 1, &out));
  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits, 1u);      // monotonic across Clear
  EXPECT_EQ(counters.misses, 1u);
  // The cache is usable again after Clear.
  cache.InsertScalar(CacheKind::kIpDoorPair, 1, 1, 9.0);
  ASSERT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 1, &out));
  EXPECT_EQ(out, 9.0);
}

TEST(DistanceCacheTest, LruEvictsLeastRecentlyUsed) {
  DistanceCache cache(SingleShard(3));
  for (int32_t i = 1; i <= 3; ++i) {
    cache.InsertScalar(CacheKind::kIpDoorPair, i, 0, i);
  }
  // Touch key 1 so key 2 becomes the LRU victim.
  double out;
  ASSERT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 0, &out));
  cache.InsertScalar(CacheKind::kIpDoorPair, 4, 0, 4.0);

  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 0, &out));
  EXPECT_FALSE(cache.LookupScalar(CacheKind::kIpDoorPair, 2, 0, &out));
  EXPECT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 3, 0, &out));
  EXPECT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 4, 0, &out));
  EXPECT_EQ(cache.Counters().evictions, 1u);

  // Recency is now 4, 3, 1 (most recent first). A second fill of a
  // resident key (two workers computing the same miss) keeps the first
  // value but counts as a touch, so key 3 outlives key 1.
  cache.InsertScalar(CacheKind::kIpDoorPair, 1, 0, 1.0);
  cache.InsertScalar(CacheKind::kIpDoorPair, 5, 0, 5.0);
  EXPECT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 0, &out));
  EXPECT_FALSE(cache.LookupScalar(CacheKind::kIpDoorPair, 3, 0, &out));
  EXPECT_EQ(cache.Counters().insertions, 5u);
  EXPECT_EQ(cache.Counters().evictions, 2u);
}

TEST(DistanceCacheTest, ShardingBoundsTotalSize) {
  DistanceCacheOptions options;
  options.enabled = true;
  options.capacity = 64;
  options.shards = 8;
  DistanceCache cache(options);
  for (int32_t i = 0; i < 500; ++i) {
    cache.InsertScalar(CacheKind::kIpDoorPair, i, i, i);
  }
  // Per-shard capacity is capacity/shards; the total can never exceed the
  // configured capacity regardless of how keys hash.
  EXPECT_LE(cache.Size(), 64u);
  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.insertions, 500u);
  EXPECT_EQ(counters.insertions - counters.evictions, cache.Size());
}

TEST(DistanceCacheTest, ShardCountClampedToPowerOfTwo) {
  for (size_t shards : {0u, 1u, 3u, 8u, 1000u}) {
    DistanceCacheOptions options;
    options.capacity = 128;
    options.shards = shards;
    DistanceCache cache(options);  // must not crash; keys must all resolve
    for (int32_t i = 0; i < 64; ++i) {
      cache.InsertScalar(CacheKind::kIpDoorPair, i, 0, i);
    }
    int hits = 0;
    for (int32_t i = 0; i < 64; ++i) {
      double value;
      if (cache.LookupScalar(CacheKind::kIpDoorPair, i, 0, &value)) ++hits;
    }
    EXPECT_GT(hits, 0) << "shards=" << shards;
  }
}

// Concurrency smoke: threads race lookups and inserts over an overlapping
// key range. Values are a pure function of the key, so every hit must
// return the value any thread would have inserted. Run under TSan via the
// `cache` label.
TEST(DistanceCacheTest, ConcurrentInsertLookupSmoke) {
  DistanceCacheOptions options;
  options.enabled = true;
  options.capacity = 256;
  options.shards = 4;
  DistanceCache cache(options);

  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  constexpr int32_t kKeySpace = 512;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < kOps; ++i) {
        const int32_t a = static_cast<int32_t>((i * 37 + t * 11) % kKeySpace);
        const int32_t b = static_cast<int32_t>((i * 13) % kKeySpace);
        double out;
        if (cache.LookupScalar(CacheKind::kIpDoorPair, a, b, &out)) {
          ASSERT_EQ(out, a * 1000.0 + b);
        } else {
          cache.InsertScalar(CacheKind::kIpDoorPair, a, b, a * 1000.0 + b);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.lookups(), static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_LE(cache.Size(), options.capacity);
}

// Regression for the unchecked LCA index lookups in the DoorDistance join
// loops: doors on leaf boundaries appear in the access-door lists of more
// than one leaf, and a bad IndexOf there used to read a wrong matrix row
// silently. Sweep every door pair of multi-leaf random venues through both
// engines, cache on and off, against Dijkstra ground truth.
TEST(DistanceCacheTest, MultiLeafBoundaryDoorDistances) {
  // Seeds chosen for small multi-leaf venues (2-4 leaves, ~20 doors), so
  // the all-pairs sweep is cheap but boundary doors genuinely span leaves.
  for (uint64_t seed : {10u, 21u}) {
    const Venue venue = testing::RandomSynthVenue(seed);
    const D2DGraph graph(venue);
    const IPTree tree = IPTree::Build(venue, graph, {.min_degree = 2});
    const VIPTree vip = VIPTree::Build(venue, graph, {.min_degree = 2});
    ASSERT_GT(tree.num_leaves(), 1u) << "seed " << seed;

    DistanceCache cache(SingleShard(1 << 14));
    IPDistanceQuery ip_plain(tree);
    IPDistanceQuery ip_cached(tree, {}, &cache);
    VIPDistanceQuery vip_plain(vip);
    VIPDistanceQuery vip_cached(vip, {}, &cache);

    DijkstraEngine dijkstra(graph);
    const DoorId num_doors = static_cast<DoorId>(venue.NumDoors());
    for (DoorId s = 0; s < num_doors; ++s) {
      dijkstra.Start(s);
      dijkstra.RunAll();
      for (DoorId t = 0; t < num_doors; ++t) {
        const double expected = dijkstra.DistanceTo(t);
        EXPECT_NEAR(ip_plain.DoorDistance(s, t), expected, 1e-4)
            << "IP seed " << seed << " " << s << "->" << t;
        EXPECT_NEAR(vip_plain.DoorDistance(s, t), expected, 1e-4)
            << "VIP seed " << seed << " " << s << "->" << t;
        // The cached engines must agree bit-for-bit with the uncached
        // ones — twice, so the second pass reads what the first inserted.
        for (int pass = 0; pass < 2; ++pass) {
          EXPECT_EQ(ip_cached.DoorDistance(s, t), ip_plain.DoorDistance(s, t))
              << "IP cached pass " << pass << " seed " << seed;
          EXPECT_EQ(vip_cached.DoorDistance(s, t),
                    vip_plain.DoorDistance(s, t))
              << "VIP cached pass " << pass << " seed " << seed;
        }
      }
    }
    EXPECT_GT(cache.Counters().hits, 0u) << "seed " << seed;
  }
}

TEST(AdaptiveCapacityTest, ScalesWithDoorsAndClamps) {
  EXPECT_EQ(AdaptiveCacheCapacity(0), size_t{1} << 12);      // floor
  EXPECT_EQ(AdaptiveCacheCapacity(100), size_t{1} << 12);    // 1600 < floor
  EXPECT_EQ(AdaptiveCacheCapacity(1000), size_t{16000});     // 16x doors
  EXPECT_EQ(AdaptiveCacheCapacity(1 << 20), size_t{1} << 20);  // ceiling
}

TEST(AdaptiveCapacityTest, BundleResolvesAutoCapacityFromVenue) {
  engine::QueryEngine engine(
      engine::VenueBundle::Build(testing::RandomSynthVenue(7), {}));
  engine.EnableDistanceCache();  // capacity left at the 0 auto sentinel
  ASSERT_NE(engine.distance_cache(), nullptr);
  EXPECT_EQ(engine.distance_cache()->options().capacity,
            AdaptiveCacheCapacity(engine.venue().NumDoors()));

  // An explicit capacity is taken verbatim.
  DistanceCacheOptions fixed;
  fixed.capacity = 12345;
  engine.EnableDistanceCache(fixed);
  EXPECT_EQ(engine.distance_cache()->options().capacity, 12345u);
}

TEST(AdaptiveCapacityTest, DirectConstructionWithSentinelStillWorks) {
  // No venue in scope: the cache itself falls back to the fixed default
  // and must stay fully functional.
  DistanceCache cache;  // DistanceCacheOptions{} => capacity 0
  cache.InsertScalar(CacheKind::kIpDoorPair, 1, 2, 42.0);
  double out = 0.0;
  EXPECT_TRUE(cache.LookupScalar(CacheKind::kIpDoorPair, 1, 2, &out));
  EXPECT_EQ(out, 42.0);
}

}  // namespace
}  // namespace viptree
