// Fig. 11: kNN and range queries.
//   (a) kNN latency vs k in {1, 5, 10}            (Men-2, 50 objects)
//   (b) kNN latency vs #objects in {10,50,100,500} (Men-2, k = 5)
//   (c) kNN latency across venues                  (k = 5, 50 objects)
//   (d) range query latency across venues          (r = 100 m, 50 objects)
//
// VIP kNN rows also report doors_settled and edges_relaxed: the mean
// number of doors the search of q's own leaf settles and of edges it
// relaxes (SearchStats), over the first VIPTREE_QUERIES points.
//
// kNN and range time a pool of distinct random points at least as large as
// the iteration count, so no point is timed twice (a small cycled pool
// would keep its leaves' rows and matrices cache-hot).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "core/ip_tree.h"
#include "core/knn_query.h"
#include "core/object_index.h"

namespace viptree {
namespace bench {
namespace {

constexpr size_t kDefaultObjects = 50;
constexpr size_t kDefaultK = 5;
constexpr double kDefaultRange = 100.0;

// Engines keep the most recent object set; serialize object configuration
// through this helper.
QueryEngine& EngineWithObjects(synth::Dataset dataset, EngineKind kind,
                               size_t num_objects) {
  QueryEngine& engine = GetEngine(dataset, kind);
  engine.SetObjects(Objects(dataset, num_objects));
  return engine;
}

// Distinct random query points, at least as many as the iterations the
// benchmark runs this time.
std::vector<IndoorPoint> PointPool(synth::Dataset dataset,
                                   const benchmark::State& state) {
  return QueryPoints(dataset,
                     std::max(NumQueries(),
                              static_cast<size_t>(state.max_iterations)));
}

// Sets the doors_settled and edges_relaxed counters: means over the first
// NumQueries() of `points`. The VIP engine runs the IP-Tree's kNN search
// over its base tree, so an IP-Tree built from the same venue reproduces
// its counters.
void LeafSearchCounters(benchmark::State& state, synth::Dataset dataset,
                        size_t num_objects, size_t k,
                        const std::vector<IndoorPoint>& points) {
  static std::map<synth::Dataset, std::unique_ptr<IPTree>>* trees =
      new std::map<synth::Dataset, std::unique_ptr<IPTree>>();
  std::unique_ptr<IPTree>& tree = (*trees)[dataset];
  if (tree == nullptr) {
    const DatasetBundle& bundle = GetDataset(dataset);
    tree = std::make_unique<IPTree>(IPTree::Build(bundle.venue, bundle.graph));
  }
  const ObjectIndex objects(*tree, Objects(dataset, num_objects));
  const KnnQuery knn(*tree, objects);
  const size_t n = NumQueries();  // PointPool holds at least this many
  double settled = 0.0;
  double relaxed = 0.0;
  for (size_t i = 0; i < n; ++i) {
    SearchStats stats;
    knn.Knn(points[i], k, &stats);
    settled += static_cast<double>(stats.doors_settled);
    relaxed += static_cast<double>(stats.edges_relaxed);
  }
  state.counters["doors_settled"] = settled / static_cast<double>(n);
  state.counters["edges_relaxed"] = relaxed / static_cast<double>(n);
}

void BM_Knn(benchmark::State& state, synth::Dataset dataset, EngineKind kind,
            size_t num_objects, size_t k) {
  QueryEngine& engine = EngineWithObjects(dataset, kind, num_objects);
  const auto points = PointPool(dataset, state);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Knn(points[i++], k));
  }
  if (kind == EngineKind::kVipTree) {
    LeafSearchCounters(state, dataset, num_objects, k, points);
  }
}

void BM_Range(benchmark::State& state, synth::Dataset dataset,
              EngineKind kind, double radius) {
  QueryEngine& engine = EngineWithObjects(dataset, kind, kDefaultObjects);
  const auto points = PointPool(dataset, state);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Range(points[i++], radius));
  }
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main(int argc, char** argv) {
  using namespace viptree;
  using namespace viptree::bench;
  const synth::Dataset men2 = synth::Dataset::kMen2;

  std::printf("=== Fig. 11(a): kNN vs k (Men-2, 50 objects) ===\n");
  for (size_t k : {1u, 5u, 10u}) {
    for (EngineKind kind : ObjectCompetitors()) {
      benchmark::RegisterBenchmark(
          ("Fig11a/kNN/k=" + std::to_string(k) + "/" + EngineName(kind))
              .c_str(),
          [men2, kind, k](benchmark::State& state) {
            BM_Knn(state, men2, kind, kDefaultObjects, k);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }

  std::printf("=== Fig. 11(b): kNN vs #objects (Men-2, k=5) ===\n");
  for (size_t objects : {10u, 50u, 100u, 500u}) {
    for (EngineKind kind : ObjectCompetitors()) {
      benchmark::RegisterBenchmark(
          ("Fig11b/kNN/objects=" + std::to_string(objects) + "/" +
           EngineName(kind))
              .c_str(),
          [men2, kind, objects](benchmark::State& state) {
            BM_Knn(state, men2, kind, objects, kDefaultK);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }

  std::printf("=== Fig. 11(c)/(d): kNN and range across venues ===\n");
  for (synth::Dataset d : viptree::bench::AllBenchDatasets()) {
    for (EngineKind kind : ObjectCompetitors()) {
      if (kind == EngineKind::kDistAwPlusPlus && !DistMxFeasible(d)) continue;
      benchmark::RegisterBenchmark(
          ("Fig11c/kNN/" + synth::InfoFor(d).name + "/" + EngineName(kind))
              .c_str(),
          [d, kind](benchmark::State& state) {
            BM_Knn(state, d, kind, kDefaultObjects, kDefaultK);
          })
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          ("Fig11d/Range/" + synth::InfoFor(d).name + "/" + EngineName(kind))
              .c_str(),
          [d, kind](benchmark::State& state) {
            BM_Range(state, d, kind, kDefaultRange);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
