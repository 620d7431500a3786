// A/B benchmark for the execution planner (engine/exec_plan.h): coalesced
// vs sequential execution on source-skewed batches — the access pattern
// coalescing exists for (many concurrent queries leaving the same
// entrance/lobby/POI, a zipfian distribution over a small hot source
// pool).
//
// Two configurations per workload, both on the calling thread through
// QueryEngine directly, so the ratio isolates the planner (no Service
// queue, no parallelism):
//   sequential  RunSequential — the baseline;
//   coalesced   RunCoalesced over kWindow-sized spans.
//
// Results are bit-identical across both configurations (the planner's
// contract); the bench CHECKs coalesced against sequential as it runs and
// prints the planner's group/ascent accounting. Respects VIPTREE_SCALE /
// VIPTREE_QUERIES like every other bench.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "engine/query_engine.h"

namespace viptree {
namespace bench {
namespace {

constexpr size_t kHotSources = 16;  // distinct sources in the zipfian pool
// Whole-batch window: the planner gets the full batch as one span, so the
// ratio measures the planner's grouping, not how a latency-bounded
// serving window happens to fragment it (the Service default stays 64).
constexpr size_t kWindow = 4096;

// Zipfian sampler over ranks 0..n-1: P(r) proportional to 1/(r+1). The
// classic "everyone routes from the main entrance" skew — rank 0 draws
// ~29% of a 16-entry pool, the tail stays warm but rare.
class Zipf {
 public:
  Zipf(size_t n, Rng& rng) : rng_(rng) {
    cumulative_.reserve(n);
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cumulative_.push_back(total);
    }
  }

  size_t Next() {
    const double u = rng_.UniformReal(0.0, cumulative_.back());
    for (size_t r = 0; r < cumulative_.size(); ++r) {
      if (u < cumulative_[r]) return r;
    }
    return cumulative_.size() - 1;
  }

 private:
  Rng& rng_;
  std::vector<double> cumulative_;
};

// Source-skewed workload: sources zipfian over a small hot pool, targets
// (and kNN ks) uniform. `knn_fraction` of the queries are kNN from the
// same skewed sources, the rest are distance queries.
std::vector<engine::Query> SkewedWorkload(const Venue& venue, size_t n,
                                          double knn_fraction,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<IndoorPoint> pool;
  pool.reserve(kHotSources);
  for (size_t i = 0; i < kHotSources; ++i) {
    pool.push_back(synth::RandomIndoorPoint(venue, rng));
  }
  Zipf zipf(pool.size(), rng);
  std::vector<engine::Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const IndoorPoint& source = pool[zipf.Next()];
    if (rng.Chance(knn_fraction)) {
      queries.push_back(
          engine::Query::Knn(source, 3 + rng.UniformIndex(5)));
    } else {
      queries.push_back(engine::Query::Distance(
          source, synth::RandomIndoorPoint(venue, rng)));
    }
  }
  return queries;
}

bool BitIdentical(const engine::Result& a, const engine::Result& b) {
  if (std::memcmp(&a.distance, &b.distance, sizeof(double)) != 0) {
    return false;
  }
  if (a.objects.size() != b.objects.size()) return false;
  for (size_t i = 0; i < a.objects.size(); ++i) {
    if (a.objects[i].object != b.objects[i].object ||
        std::memcmp(&a.objects[i].distance, &b.objects[i].distance,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return a.doors == b.doors;
}

struct RunResult {
  double wall_ms = 0.0;
  double qps = 0.0;
  std::vector<engine::Result> results;
  engine::PlanStats plan;  // zero unless coalesced
};

RunResult RunOnce(const engine::QueryEngine& engine,
                  const std::vector<engine::Query>& queries, bool coalesce) {
  RunResult run;
  const Timer wall;
  if (coalesce) {
    run.results.reserve(queries.size());
    for (size_t begin = 0; begin < queries.size(); begin += kWindow) {
      const Span<const engine::Query> span(
          queries.data() + begin, std::min(kWindow, queries.size() - begin));
      for (engine::Result& r : engine.RunCoalesced(span, &run.plan)) {
        run.results.push_back(std::move(r));
      }
    }
  } else {
    run.results = engine.RunSequential(queries);
  }
  run.wall_ms = wall.ElapsedMillis();
  run.qps = queries.size() / (run.wall_ms / 1000.0);
  return run;
}

void RunWorkload(const engine::QueryEngine& engine, const char* label,
                 const std::vector<engine::Query>& queries) {
  // Warm-up pass so lazily-built structures don't bias the first timing.
  RunOnce(engine, queries, /*coalesce=*/false);

  const RunResult sequential = RunOnce(engine, queries, /*coalesce=*/false);
  const RunResult coalesced = RunOnce(engine, queries, /*coalesce=*/true);
  for (size_t i = 0; i < queries.size(); ++i) {
    VIPTREE_CHECK_MSG(
        BitIdentical(sequential.results[i], coalesced.results[i]),
        "coalesced execution diverged from sequential");
  }

  const engine::PlanStats& plan = coalesced.plan;
  std::printf("%s: %zu queries\n", label, queries.size());
  std::printf("  %-10s %10.2f ms %12.0f q/s\n", "sequential",
              sequential.wall_ms, sequential.qps);
  std::printf("  %-10s %10.2f ms %12.0f q/s   %.2fx\n", "coalesced",
              coalesced.wall_ms, coalesced.qps,
              coalesced.qps / sequential.qps);
  std::printf(
      "  plan: %llu groups over %llu queries, %llu ascents computed, "
      "%llu reused\n",
      static_cast<unsigned long long>(plan.groups),
      static_cast<unsigned long long>(plan.coalesced_queries),
      static_cast<unsigned long long>(plan.ascents_computed),
      static_cast<unsigned long long>(plan.ascents_reused));
}

void RunDataset(synth::Dataset dataset, size_t num_queries) {
  DatasetBundle& data = GetDataset(dataset);
  std::printf("dataset %s: %zu partitions, %zu doors\n",
              data.info.name.c_str(), data.venue.NumPartitions(),
              data.venue.NumDoors());
  engine::QueryEngine engine(engine::VenueBundle::BuildFrom(
      data.venue, data.graph, Objects(dataset, 50)));

  const uint64_t seed = 0x21BF ^ static_cast<uint64_t>(dataset);
  RunWorkload(engine, "  distance-only",
              SkewedWorkload(data.venue, num_queries,
                             /*knn_fraction=*/0.0, seed));
  RunWorkload(engine, "  knn-only",
              SkewedWorkload(data.venue, num_queries,
                             /*knn_fraction=*/1.0, seed + 1));
  RunWorkload(engine, "  mixed distance/knn",
              SkewedWorkload(data.venue, num_queries,
                             /*knn_fraction=*/0.3, seed + 2));
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() {
  using namespace viptree;
  using namespace viptree::bench;

  RunDataset(synth::Dataset::kMen2, NumQueries() * 4);
  // City scale: fewer queries — the venue itself is the load.
  RunDataset(synth::Dataset::kCity, NumQueries());
  return 0;
}
