// Cross-request distance cache: memoizes IPDistanceQuery::DoorDistance and
// VIPDistanceQuery::DoorDistance, the only calls that reach it (point
// queries cannot key it, and the access-door positions their matrix joins
// read are tree structure: IPTree::ParentMatrixPositions). Exact by
// construction — the D2D graph and every tree matrix are immutable after
// load (only *objects* move, through LiveObjectIndex), so a cached leg can
// never go stale; and every cached value is the bitwise result of the one
// deterministic computation it replaces (a memo, never a recomposition),
// so cache-on and cache-off answers are bit-identical.
//
// Entry kinds (all keyed on small dense ids):
//
//   kIpDoorPair / kVipDoorPair  (door, door) -> distance
//       the full result of IPDistanceQuery::DoorDistance /
//       VIPDistanceQuery::DoorDistance. Two kinds on purpose: the IP
//       (iterative ascent) and VIP (materialized lookup) variants may
//       differ in the last ulp, and a shared entry would leak one
//       variant's rounding into the other.
//   kIpDoorAscent  (door, node) -> access-door distance vector
//       dist(door -> every access door of `node`), the Algorithm 2 ascent
//       vector of a door source (IP variant only; the VIP variant reads
//       these in O(1) from the extended matrices already).
//
// Sharded and thread-safe: a key hashes to one of `shards` independent
// (mutex, hash map, recency list, counters) quadruples, so concurrent
// workers sharing one cache per venue contend only per shard. Eviction is
// LRU per shard. Capacity counts entries, split evenly across shards.
//
// One cache must serve exactly one venue: keys are venue-local dense ids,
// so sharing a cache across venues would alias unrelated doors.

#ifndef VIPTREE_CORE_DISTANCE_CACHE_H_
#define VIPTREE_CORE_DISTANCE_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "model/types.h"

namespace viptree {

struct DistanceCacheOptions {
  // The owning layer (ServiceOptions::cache) creates a cache only when
  // set; a constructed DistanceCache itself is always active, and
  // QueryEngine::EnableDistanceCache ignores the flag (calling it *is*
  // enabling).
  bool enabled = false;
  // Total entries across all shards (>= 1 per shard is enforced). 0 is
  // the *auto* sentinel: layers that know the venue (QueryEngine,
  // Service) resolve it to AdaptiveCacheCapacity(venue door count) before
  // constructing the cache; a DistanceCache built directly with 0 falls
  // back to the historical fixed default (1 << 16).
  size_t capacity = 0;
  // Rounded up to a power of two, clamped to [1, 256].
  size_t shards = 8;
};

// Capacity for the auto sentinel: ~16 entries per door — enough to hold
// the superior-door pair working set of every zone several times over —
// clamped to [4096, 1M] so toy venues still amortize their shards and
// city-scale venues stay bounded.
size_t AdaptiveCacheCapacity(size_t num_doors);

// What a key memoizes (and which computation wrote it — see file comment).
enum class CacheKind : uint8_t {
  kIpDoorPair = 0,
  kVipDoorPair = 1,
  kIpDoorAscent = 2,
};

class DistanceCache {
 public:
  explicit DistanceCache(const DistanceCacheOptions& options = {});
  ~DistanceCache();

  DistanceCache(const DistanceCache&) = delete;
  DistanceCache& operator=(const DistanceCache&) = delete;

  // Lookups copy the value out under the shard lock (into the caller's
  // reusable scratch for the vector kind) and count a hit or miss; a miss
  // is expected to be followed by the corresponding Insert. All methods
  // are safe from any number of threads.
  bool LookupScalar(CacheKind kind, int32_t a, int32_t b, double* out);
  void InsertScalar(CacheKind kind, int32_t a, int32_t b, double value);

  bool LookupDistVector(CacheKind kind, int32_t a, int32_t b,
                        std::vector<double>* out);
  void InsertDistVector(CacheKind kind, int32_t a, int32_t b,
                        const std::vector<double>& value);

  // Counters summed over shards; monotonic (Clear resets entries, not
  // counters, so long-running stats stay continuous).
  CacheCounters Counters() const;
  // Resident entries, summed over shards.
  size_t Size() const;
  // Drops every resident entry and its recency history.
  void Clear();

  const DistanceCacheOptions& options() const { return options_; }

 private:
  struct Key {
    uint8_t kind = 0;
    int32_t a = 0;
    int32_t b = 0;
    bool operator==(const Key& other) const {
      return kind == other.kind && a == other.a && b == other.b;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry;
  struct Shard;

  Shard& ShardFor(const Key& key);
  template <typename Copy>
  bool LookupInternal(const Key& key, Copy&& copy);
  template <typename Fill>
  void InsertInternal(const Key& key, Fill&& fill);

  const DistanceCacheOptions options_;
  size_t num_shards_ = 1;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_DISTANCE_CACHE_H_
