#include "engine/exec_plan.h"

#include <array>
#include <cstring>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/stats.h"
#include "engine/query_engine.h"

namespace viptree {
namespace engine {

namespace {

// kNN grouping key: the exact source point, compared by bit pattern —
// equal bits guarantee an identical root ascent, so sharing it cannot
// change any answer. k stays out of the key on purpose: the ascent does
// not depend on it, so Knn(q, 3) and Knn(q, 5) share one ascent while
// each running its own full search (never a prefix of the other's).
using SourceKey = std::array<uint64_t, 4>;

SourceKey KeyOf(const IndoorPoint& p) {
  SourceKey key{};
  key[0] = static_cast<uint64_t>(static_cast<int64_t>(p.partition));
  static_assert(sizeof(p.position) == sizeof(double) * 3,
                "Point is 3 doubles");
  std::memcpy(&key[1], &p.position, sizeof(double) * 3);
  return key;
}

}  // namespace

void PlanStats::RecordGroup(size_t size) {
  ++groups;
  coalesced_queries += size;
  size_t bucket = 0;
  while (bucket + 1 < kHistogramBuckets && (size >> (bucket + 1)) != 0) {
    ++bucket;
  }
  ++groups_by_size[bucket];
}

void PlanStats::Merge(const PlanStats& other) {
  groups += other.groups;
  coalesced_queries += other.coalesced_queries;
  ascents_computed += other.ascents_computed;
  ascents_reused += other.ascents_reused;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    groups_by_size[b] += other.groups_by_size[b];
  }
}

PlanStats ExecutePlan(Span<const Query> queries,
                      const SnapshotQuery* objects,
                      const std::function<Result(const Query&)>& fallback,
                      std::vector<Result>& results) {
  const size_t n = queries.size();
  VIPTREE_CHECK_MSG(results.size() == n,
                    "ExecutePlan results must be pre-sized to the batch");
  PlanStats stats;

  // Group kNN queries by exact source point; everything else (and every
  // singleton group) takes the sequential fallback.
  std::map<SourceKey, std::vector<size_t>> knn_groups;
  std::vector<size_t> fall;
  for (size_t i = 0; i < n; ++i) {
    if (queries[i].type == QueryType::kKnn && objects != nullptr) {
      knn_groups[KeyOf(queries[i].source)].push_back(i);
    } else {
      fall.push_back(i);
    }
  }

  for (auto& [key, members] : knn_groups) {
    (void)key;
    if (members.size() < 2) {
      fall.insert(fall.end(), members.begin(), members.end());
      continue;
    }
    // One root ascent for the whole group; its cost is spread across the
    // members' latencies (each sequential run would have paid it whole).
    const Timer ascent_timer;
    const AscentDistances ascent =
        objects->ComputeAscent(queries[members[0]].source);
    const double ascent_micros =
        ascent_timer.ElapsedMicros() / static_cast<double>(members.size());
    ++stats.ascents_computed;
    stats.ascents_reused += members.size() - 1;
    stats.RecordGroup(members.size());
    // Within the group the source is bit-equal, so members that also share
    // k are the *same* deterministic search — run it once per distinct k
    // and copy the result to the duplicates (zipfian front-door traffic is
    // full of them).
    std::map<size_t, size_t> first_for_k;
    for (size_t i : members) {
      const auto [it, fresh] = first_for_k.emplace(queries[i].k, i);
      if (!fresh) {
        const Result& done = results[it->second];
        Result& r = results[i];
        r.type = QueryType::kKnn;
        r.objects = done.objects;
        r.latency_micros = done.latency_micros;
        r.visited_nodes = done.visited_nodes;
        continue;
      }
      SearchStats search;
      const Timer timer;
      std::vector<ObjectResult> found =
          objects->KnnWithAscent(queries[i].source, queries[i].k, ascent,
                                 &search);
      Result& r = results[i];
      r.type = QueryType::kKnn;
      r.objects = std::move(found);
      r.latency_micros = timer.ElapsedMicros() + ascent_micros;
      r.visited_nodes = search.nodes_visited;
    }
  }

  for (size_t i : fall) results[i] = fallback(queries[i]);
  return stats;
}

}  // namespace engine
}  // namespace viptree
