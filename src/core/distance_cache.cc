#include "core/distance_cache.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/check.h"

namespace viptree {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t DistanceCache::KeyHash::operator()(const Key& key) const {
  // splitmix64 finalizer over the packed 72-bit key; good avalanche so
  // both the shard choice (low bits) and the map buckets stay uniform
  // even though door/node ids are small dense integers.
  uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(key.a)) << 32) |
               static_cast<uint64_t>(static_cast<uint32_t>(key.b));
  x ^= static_cast<uint64_t>(key.kind) << 56;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x = x ^ (x >> 31);
  return static_cast<size_t>(x);
}

// One value slot per kind family (scalar, distance vector); which member
// is live is implied by the key's kind, so no discriminant is stored.
// `pos` is the entry's place in its shard's recency list.
struct DistanceCache::Entry {
  double scalar = 0.0;
  std::vector<double> dist;
  std::list<Key>::iterator pos;
};

// One LRU shard: the map owns the values, the list orders their keys by
// recency (most recent at the front).
struct DistanceCache::Shard {
  mutable std::mutex mu;
  std::unordered_map<Key, Entry, KeyHash> map;
  std::list<Key> lru;
  size_t capacity = 1;
  CacheCounters counters;

  void Touch(Entry& entry) { lru.splice(lru.begin(), lru, entry.pos); }
};

size_t AdaptiveCacheCapacity(size_t num_doors) {
  const size_t want = 16 * num_doors;
  return std::min<size_t>(1u << 20, std::max<size_t>(1u << 12, want));
}

DistanceCache::DistanceCache(const DistanceCacheOptions& options)
    : options_(options) {
  num_shards_ = RoundUpPow2(std::max<size_t>(1, std::min<size_t>(
                                                    options.shards, 256)));
  // capacity 0 = the auto sentinel unresolved (no venue in scope here):
  // fall back to the historical fixed default.
  const size_t capacity =
      options.capacity == 0 ? (size_t{1} << 16) : options.capacity;
  const size_t per_shard = std::max<size_t>(1, capacity / num_shards_);
  shards_.reset(new Shard[num_shards_]);
  for (size_t i = 0; i < num_shards_; ++i) shards_[i].capacity = per_shard;
}

DistanceCache::~DistanceCache() = default;

DistanceCache::Shard& DistanceCache::ShardFor(const Key& key) {
  return shards_[KeyHash()(key) & (num_shards_ - 1)];
}

template <typename Copy>
bool DistanceCache::LookupInternal(const Key& key, Copy&& copy) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.counters.misses;
    return false;
  }
  ++shard.counters.hits;
  shard.Touch(it->second);
  copy(it->second);
  return true;
}

template <typename Fill>
void DistanceCache::InsertInternal(const Key& key, Fill&& fill) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto emplaced = shard.map.emplace(key, Entry());
  if (!emplaced.second) {
    // Concurrent fill of the same miss: both threads computed the same
    // deterministic value, so keeping the first is equivalent. Count it
    // as a touch so the recency list sees the reference.
    shard.Touch(emplaced.first->second);
    return;
  }
  Entry& entry = emplaced.first->second;
  fill(entry);
  ++shard.counters.insertions;
  shard.lru.push_front(key);
  entry.pos = shard.lru.begin();
  // capacity >= 1, so the key just inserted is never its own victim.
  while (shard.lru.size() > shard.capacity) {
    VIPTREE_DCHECK(!(shard.lru.back() == key));
    shard.map.erase(shard.lru.back());
    shard.lru.pop_back();
    ++shard.counters.evictions;
  }
}

bool DistanceCache::LookupScalar(CacheKind kind, int32_t a, int32_t b,
                                 double* out) {
  Key key{static_cast<uint8_t>(kind), a, b};
  return LookupInternal(key, [out](const Entry& e) { *out = e.scalar; });
}

void DistanceCache::InsertScalar(CacheKind kind, int32_t a, int32_t b,
                                 double value) {
  Key key{static_cast<uint8_t>(kind), a, b};
  InsertInternal(key, [value](Entry& e) { e.scalar = value; });
}

bool DistanceCache::LookupDistVector(CacheKind kind, int32_t a, int32_t b,
                                     std::vector<double>* out) {
  Key key{static_cast<uint8_t>(kind), a, b};
  return LookupInternal(key, [out](const Entry& e) {
    out->assign(e.dist.begin(), e.dist.end());
  });
}

void DistanceCache::InsertDistVector(CacheKind kind, int32_t a, int32_t b,
                                     const std::vector<double>& value) {
  Key key{static_cast<uint8_t>(kind), a, b};
  InsertInternal(key, [&value](Entry& e) { e.dist = value; });
}

CacheCounters DistanceCache::Counters() const {
  CacheCounters total;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].counters;
  }
  return total;
}

size_t DistanceCache::Size() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].map.size();
  }
  return total;
}

void DistanceCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].map.clear();
    shards_[i].lru.clear();
  }
}

}  // namespace viptree
