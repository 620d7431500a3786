// Shared support for the paper-reproduction benchmarks: dataset loading at
// laptop-friendly scale (override with VIPTREE_SCALE / VIPTREE_QUERIES),
// lazily cached engines, and deterministic workloads.
//
// Scale note: MC/MC-2/Men/Men-2 analogues build at paper magnitude by
// default; the Clayton campus analogues default to 12% of the paper's room
// counts so a full bench sweep finishes in minutes. Set VIPTREE_SCALE=1.0
// to build paper-magnitude Clayton venues (several GB / tens of minutes for
// the quadratic DistMx competitor, exactly as §4 warns).

#ifndef VIPTREE_BENCH_BENCH_COMMON_H_
#define VIPTREE_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dist_matrix.h"
#include "baselines/engines.h"
#include "common/rng.h"
#include "engine/query_engine.h"
#include "graph/d2d_graph.h"
#include "synth/objects.h"
#include "synth/presets.h"

namespace viptree {
namespace bench {

inline double EnvScaleOverride() {
  const char* env = std::getenv("VIPTREE_SCALE");
  return env != nullptr ? std::atof(env) : 0.0;
}

inline size_t NumQueries() {
  const char* env = std::getenv("VIPTREE_QUERIES");
  const long v = env != nullptr ? std::atol(env) : 0;
  return v > 0 ? static_cast<size_t>(v) : 500;
}

inline double ScaleFor(synth::Dataset dataset) {
  const double override_scale = EnvScaleOverride();
  if (override_scale > 0.0) return override_scale;
  switch (dataset) {
    case synth::Dataset::kCL:
    case synth::Dataset::kCL2:
      return 0.12;
    case synth::Dataset::kCity:
      return 0.05;  // ~320 building-copies dominate cost even at small rooms
    default:
      return 1.0;
  }
}

struct DatasetBundle {
  synth::DatasetInfo info;
  Venue venue;
  D2DGraph graph;

  explicit DatasetBundle(synth::Dataset dataset)
      : info(synth::InfoFor(dataset)),
        venue(synth::MakeDataset(dataset, ScaleFor(dataset))),
        graph(venue) {}
};

// Process-wide dataset cache (benchmarks run sequentially).
inline DatasetBundle& GetDataset(synth::Dataset dataset) {
  static std::map<synth::Dataset, std::unique_ptr<DatasetBundle>>* cache =
      new std::map<synth::Dataset, std::unique_ptr<DatasetBundle>>();
  auto it = cache->find(dataset);
  if (it == cache->end()) {
    it = cache->emplace(dataset, std::make_unique<DatasetBundle>(dataset))
             .first;
  }
  return *it->second;
}

// The paper could not construct the distance matrix beyond Men-2 (§4.2);
// mirror that cut-off (also applies to DistAw++ which depends on it).
inline bool DistMxFeasible(synth::Dataset dataset) {
  return dataset != synth::Dataset::kCL && dataset != synth::Dataset::kCL2;
}

// Engine cache keyed by (dataset, kind); the DistMx instance is shared with
// DistAw++ like in the paper's setup.
inline QueryEngine& GetEngine(synth::Dataset dataset, EngineKind kind) {
  using Key = std::pair<synth::Dataset, EngineKind>;
  static std::map<Key, std::unique_ptr<QueryEngine>>* cache =
      new std::map<Key, std::unique_ptr<QueryEngine>>();
  static std::map<synth::Dataset, std::unique_ptr<DistanceMatrix>>* matrices =
      new std::map<synth::Dataset, std::unique_ptr<DistanceMatrix>>();
  const Key key{dataset, kind};
  auto it = cache->find(key);
  if (it == cache->end()) {
    DatasetBundle& bundle = GetDataset(dataset);
    const DistanceMatrix* shared = nullptr;
    if (kind == EngineKind::kDistMx || kind == EngineKind::kDistAwPlusPlus) {
      auto mit = matrices->find(dataset);
      if (mit == matrices->end()) {
        mit = matrices
                  ->emplace(dataset, std::make_unique<DistanceMatrix>(
                                         bundle.venue, bundle.graph))
                  .first;
      }
      shared = mit->second.get();
    }
    it = cache
             ->emplace(key, MakeEngineWithMatrix(kind, bundle.venue,
                                                 bundle.graph, shared))
             .first;
  }
  return *it->second;
}

inline std::vector<std::pair<IndoorPoint, IndoorPoint>> QueryPairs(
    synth::Dataset dataset, size_t n) {
  Rng rng(0xBEEF ^ static_cast<uint64_t>(dataset));
  return synth::RandomPointPairs(GetDataset(dataset).venue, n, rng);
}

inline std::vector<IndoorPoint> QueryPoints(synth::Dataset dataset,
                                            size_t n) {
  Rng rng(0xFACE ^ static_cast<uint64_t>(dataset));
  return synth::RandomQueryPoints(GetDataset(dataset).venue, n, rng);
}

inline std::vector<IndoorPoint> Objects(synth::Dataset dataset,
                                        size_t count) {
  Rng rng(0xD00D ^ static_cast<uint64_t>(dataset) ^ (count << 8));
  return synth::PlaceObjects(GetDataset(dataset).venue, count, rng);
}

// The serving-layer mixed workload: 40% distance, 20% path, 20% kNN, 10%
// range, 10% boolean keyword (falling back to kNN when the engine has no
// keyword index). One generator shared by bench_service_throughput and
// bench_net_throughput, so their throughput numbers stay comparable.
inline std::vector<engine::Query> MixedEngineWorkload(const Venue& venue,
                                                      uint64_t seed, size_t n,
                                                      bool keywords) {
  Rng rng(seed);
  std::vector<engine::Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
    switch (i % 10) {
      case 0:
      case 1:
      case 2:
      case 3:
        queries.push_back(engine::Query::Distance(a, b));
        break;
      case 4:
      case 5:
        queries.push_back(engine::Query::Path(a, b));
        break;
      case 6:
      case 7:
        queries.push_back(engine::Query::Knn(a, 5));
        break;
      case 8:
        queries.push_back(engine::Query::Range(a, 100.0));
        break;
      default:
        if (keywords) {
          queries.push_back(engine::Query::BooleanKnn(a, 3, {"atm"}));
        } else {
          queries.push_back(engine::Query::Knn(a, 3));
        }
        break;
    }
  }
  return queries;
}

inline const std::vector<synth::Dataset>& AllBenchDatasets() {
  static const std::vector<synth::Dataset>* all =
      new std::vector<synth::Dataset>{
          synth::Dataset::kMC,  synth::Dataset::kMC2, synth::Dataset::kMen,
          synth::Dataset::kMen2, synth::Dataset::kCL,  synth::Dataset::kCL2};
  return *all;
}

inline const std::vector<EngineKind>& DistanceCompetitors() {
  static const std::vector<EngineKind>* kinds = new std::vector<EngineKind>{
      EngineKind::kVipTree, EngineKind::kIpTree,  EngineKind::kDistAw,
      EngineKind::kDistMx,  EngineKind::kGTree,   EngineKind::kRoad};
  return *kinds;
}

inline const std::vector<EngineKind>& ObjectCompetitors() {
  static const std::vector<EngineKind>* kinds = new std::vector<EngineKind>{
      EngineKind::kVipTree, EngineKind::kIpTree,
      EngineKind::kDistAw,  EngineKind::kDistAwPlusPlus,
      EngineKind::kGTree,   EngineKind::kRoad};
  return *kinds;
}

}  // namespace bench
}  // namespace viptree

#endif  // VIPTREE_BENCH_BENCH_COMMON_H_
